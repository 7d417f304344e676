package analysis

import (
	"go/ast"
	"go/constant"
)

// Servecontract keeps error statuses on one path (docs/serving.md):
// handlers map errors through writeError/writeJSON; a direct
// http.Error, http.NotFound or WriteHeader(4xx/5xx) bypasses the
// canonical status table and the telemetry classification, and no test
// can see that, because the response it produces is a valid one.
//
// The rest of the serving contract is checked where it runs: the status
// table row by row by TestStatusScriptGolden, the request-log keys and
// metric families as rendered bytes (TestRequestRecordGolden,
// TestWritePromGolden, TestPromExpositionLint), and rendering under a
// lock by lockheld.
var Servecontract = &Analyzer{
	Name:      "servecontract",
	Doc:       "serving handlers send error statuses only through writeError/writeJSON",
	SkipTests: true,
	Run:       runServecontract,
}

func runServecontract(pass *Pass) error {
	if exampleTree(pass.PkgPath) || scopeBase(pass.PkgPath) != "serving" {
		return nil
	}
	for _, f := range pass.Files {
		pass.serveDirectStatus(f)
	}
	return nil
}

// serveDirectStatus reports error statuses that reach the client other
// than through writeError/writeJSON.
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
