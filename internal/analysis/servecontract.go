package analysis

import (
	"go/ast"
	"go/constant"
)

// Servecontract pins the serving layer's externally observable
// contracts (docs/serving.md):
//
//  1. snapshot-then-render: no HTTP response may be written while a
//     mutex is held — handlers copy state out under the lock and
//     render after releasing it (a slow client under the cursor-table
//     or slow-log lock would stall every other request). Calls are
//     resolved through the call-graph summaries, so a helper that
//     renders transitively counts.
//
//  2. the canonical error table: writeError must keep every row of
//     the status mapping — apiError → 400/404, errQueueFull → 429,
//     errDraining → 503, context.DeadlineExceeded → 504,
//     context.Canceled → 499. Dropping a row silently turns a
//     load-shedding signal into a 500.
//
//  3. no side-channel statuses: handlers map errors through
//     writeError/writeJSON; direct http.Error, http.NotFound, or
//     WriteHeader(4xx/5xx) calls bypass the table and the telemetry
//     classification.
//
// The request-log keys and the serving metric families need no rule
// here: the log attributes are generated from the slowLogEntry schema
// and the families from obsrv's counter table, and both are pinned as
// rendered bytes by tests (TestRequestRecordGolden, TestWritePromGolden,
// TestPromExpositionLint).
var Servecontract = &Analyzer{
	Name:      "servecontract",
	Doc:       "serving handlers must snapshot-then-render, keep the canonical status table, and send error statuses only through it",
	SkipTests: true,
	Run:       runServecontract,
}

// servecontractRenderScopes are the packages under the
// snapshot-then-render rule (rule 1).
var servecontractRenderScopes = map[string]bool{"serving": true, "obsrv": true}

// statusTableRows are the identifiers writeError must keep using, one
// per row of the canonical error table.
var statusTableRows = []struct {
	ident string
	label string
}{
	{"errQueueFull", "the 429 queue-full row (errQueueFull → http.StatusTooManyRequests)"},
	{"StatusTooManyRequests", "the 429 queue-full row (errQueueFull → http.StatusTooManyRequests)"},
	{"errDraining", "the 503 draining row (errDraining → http.StatusServiceUnavailable)"},
	{"StatusServiceUnavailable", "the 503 draining row (errDraining → http.StatusServiceUnavailable)"},
	{"DeadlineExceeded", "the 504 deadline row (context.DeadlineExceeded → http.StatusGatewayTimeout)"},
	{"StatusGatewayTimeout", "the 504 deadline row (context.DeadlineExceeded → http.StatusGatewayTimeout)"},
	{"Canceled", "the 499 client-gone row (context.Canceled → statusClientClosedRequest)"},
	{"statusClientClosedRequest", "the 499 client-gone row (context.Canceled → statusClientClosedRequest)"},
}

func runServecontract(pass *Pass) error {
	base := scopeBase(pass.PkgPath)
	if exampleTree(pass.PkgPath) {
		return nil
	}
	if servecontractRenderScopes[base] {
		pass.serveRenderUnderLock()
	}
	if base != "serving" {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "writeError" {
				pass.serveStatusTable(fd)
			}
		}
		pass.serveDirectStatus(f)
	}
	return nil
}

// serveRenderUnderLock enforces rule 1: no response rendering while a
// mutex is held, directly or through a same-package helper.
func (pass *Pass) serveRenderUnderLock() {
	sums := pass.summaries()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			forEachLockedStmt(pass, fd, func(s ast.Stmt) {
				ast.Inspect(s, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if r := renderCall(pass.TypesInfo, call); r != "" {
						pass.Reportf(call.Pos(), "%s while a %s mutex is held: a slow client stalls every request behind this lock; snapshot the state under the lock and render after releasing it", r, scopeBase(pass.PkgPath))
						return true
					}
					fn := calleeFunc(pass.TypesInfo, call)
					if fn == nil || fn.Pkg() != pass.Pkg {
						return true
					}
					if cs := sums.summaryFor(fn); cs != nil && cs.effects[effRender] != "" {
						pass.Reportf(call.Pos(), "call to %s renders an HTTP response (%s) while a %s mutex is held: snapshot the state under the lock and render after releasing it",
							fn.Name(), cs.effects[effRender], scopeBase(pass.PkgPath))
					}
					return true
				})
			})
		}
	}
}

// serveStatusTable enforces rule 2 on the writeError declaration.
func (pass *Pass) serveStatusTable(fd *ast.FuncDecl) {
	used := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	reported := map[string]bool{}
	for _, row := range statusTableRows {
		if used[row.ident] || reported[row.label] {
			continue
		}
		reported[row.label] = true
		pass.Reportf(fd.Name.Pos(), "writeError no longer maps %s: the canonical serving status table (400/404/429/499/503/504, docs/serving.md) must stay complete — clients key their retry behavior on it", row.label)
	}
}

// serveDirectStatus enforces rule 3: error statuses reach the client
// only through writeError/writeJSON.
func (pass *Pass) serveDirectStatus(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fd := pass.EnclosingFunc(call)
		if fd != nil && (fd.Name.Name == "writeError" || fd.Name.Name == "writeJSON") {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		base := scopeBase(fn.Pkg().Path())
		name := fn.Name()
		switch {
		case base == "http" && (name == "Error" || name == "NotFound"):
			pass.Reportf(call.Pos(), "http.%s bypasses the canonical status table: map the error through writeError so telemetry classifies it and clients see the documented statuses, or annotate with %s servecontract <reason>",
				name, allowPrefix)
		case name == "WriteHeader" && len(call.Args) == 1:
			if status, ok := constIntValue(pass, call.Args[0]); ok && status >= 400 {
				pass.Reportf(call.Pos(), "WriteHeader(%d) bypasses the canonical status table: map the error through writeError so telemetry classifies it, or annotate with %s servecontract <reason>",
					status, allowPrefix)
			}
		}
		return true
	})
}

// constIntValue evaluates a compile-time integer expression.
func constIntValue(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
