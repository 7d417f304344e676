package analysis

import (
	"go/ast"
	"go/types"
)

// Conservative per-function call-graph summaries.
//
// Helpers sit between a locked region or a drain loop and the
// primitive it eventually reaches (a handler's lookup → render →
// json.Encoder.Encode; a loop body's step → cancelled), out of reach
// of a one-level callee walk. The summaries below close that gap: for
// every function declared in the unit we compute, once per package
// load, the set of *effects* the function may perform directly or
// through any chain of same-package static calls. lockheld reads the
// effects, ctxpoll the poll bit.
//
// The analysis is deliberately conservative (a may-analysis):
//
//   - call edges are syntactic — every static call to a same-package
//     declared function propagates the callee's effects to the caller,
//     whether or not the call is reachable at run time;
//   - conditional effects count: an effect behind `if debug { ... }`
//     is still an effect of the function;
//   - function literals are excluded from the summary of the function
//     that *creates* them (their bodies run later, often on another
//     goroutine), but a literal's body contributes to summaries when
//     an analyzer walks the literal itself;
//   - dynamic calls (function values, interface methods outside the
//     recognized sets) contribute nothing — the recognized leaf sets
//     (storage/extsort/os I/O, sync.Wait, channel ops, context polls,
//     HTTP rendering) are what the invariants name.
//
// Consequently a summary-based finding can be a false positive on a
// path that never executes; such sites are suppressed at the *report
// site* (the call in the locked/draining region) with //lint:allow,
// never inside the callee — the callee's summary stays honest for its
// other callers.
//
// Fixpoint: effects are monotone booleans (with a witness path
// attached on first discovery), so iterating "propagate callee
// summaries into callers" until nothing changes terminates even with
// recursion and mutual recursion (SCCs): each of the finitely many
// (function, effect) bits flips at most once.

// effectKind classifies one blocking or contract-relevant behavior.
type effectKind int

const (
	effIO       effectKind = iota // storage/extsort/os call
	effChanSend                   // ch <- v
	effChanRecv                   // <-ch
	effSelect                     // select statement
	effSyncWait                   // sync.WaitGroup.Wait / sync.Cond.Wait
	effSleep                      // time.Sleep
	effRender                     // writes an HTTP response body/header
	numEffects
)

// funcSummary records what one function may do, transitively through
// same-package static calls. effects[k] is "" when the function cannot
// perform effect k, else a witness path like "spill → appendToSegment
// → storage.WritePage" naming one chain that reaches the effect.
type funcSummary struct {
	effects [numEffects]string
	// polls: the function calls a cancellation poll (a function or
	// method named `cancelled`, or context.Context.Err) on some path.
	polls bool
}

// summaryTable holds the unit-wide summaries, built lazily once per
// unit and shared by every analyzer that needs call-graph depth.
type summaryTable struct {
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*funcSummary
}

// summaries returns the unit's summary table, computing it on first use.
func (p *Pass) summaries() *summaryTable {
	if p.unit.summaries == nil {
		p.unit.summaries = buildSummaries(p.unit)
	}
	return p.unit.summaries
}

// summaryFor returns fn's summary, or nil when fn is not declared in
// this unit (imported functions are classified by the leaf sets, not
// by summaries).
func (t *summaryTable) summaryFor(fn *types.Func) *funcSummary {
	if t == nil || fn == nil {
		return nil
	}
	return t.sums[fn]
}

// declFor returns the declaration of a unit function, or nil.
func (t *summaryTable) declFor(fn *types.Func) *ast.FuncDecl {
	if t == nil || fn == nil {
		return nil
	}
	return t.decls[fn]
}

// buildSummaries computes the direct effects of every declared
// function, then iterates same-package call-edge propagation to a
// fixpoint.
func buildSummaries(u *Unit) *summaryTable {
	t := &summaryTable{
		decls: make(map[*types.Func]*ast.FuncDecl),
		sums:  make(map[*types.Func]*funcSummary),
	}
	for _, f := range u.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil || fd.Body == nil {
				continue
			}
			if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
				t.decls[fn] = fd
			}
		}
	}
	// calls[caller] lists the same-package functions caller's body
	// calls statically (function literals excluded).
	calls := make(map[*types.Func][]*types.Func)
	for fn, fd := range t.decls {
		s := &funcSummary{}
		t.sums[fn] = s
		directEffects(u.Info, fd, s, func(callee *types.Func) {
			if _, ok := t.decls[callee]; ok && callee != fn {
				calls[fn] = append(calls[fn], callee)
			}
		})
	}
	// Fixpoint propagation. Every iteration can only set bits that
	// were clear, so the loop terminates.
	for changed := true; changed; {
		changed = false
		for fn := range t.decls {
			s := t.sums[fn]
			for _, callee := range calls[fn] {
				cs := t.sums[callee]
				for k := effectKind(0); k < numEffects; k++ {
					if s.effects[k] == "" && cs.effects[k] != "" {
						s.effects[k] = callee.Name() + " → " + cs.effects[k]
						changed = true
					}
				}
				if !s.polls && cs.polls {
					s.polls = true
					changed = true
				}
			}
		}
	}
	return t
}

// directEffects records fd's own effects into s and hands every
// resolvable callee to onCall. Function literal bodies are skipped.
func directEffects(info *types.Info, fd *ast.FuncDecl, s *funcSummary, onCall func(*types.Func)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			s.setEffect(effChanSend, "channel send")
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				s.setEffect(effChanRecv, "channel receive")
			}
		case *ast.SelectStmt:
			s.setEffect(effSelect, "select")
		case *ast.CallExpr:
			fn := calleeFunc(info, e)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if k, what, ok := callEffect(info, e); ok {
				s.setEffect(k, what)
			}
			if fn.Name() == "cancelled" || (scopeBase(fn.Pkg().Path()) == "context" && fn.Name() == "Err") {
				s.polls = true
			}
			onCall(fn)
		}
		return true
	})
}

// callEffect classifies a call to one of the recognized leaf
// primitives: the effect it has and the name it goes by in a witness
// path. ok is false for every other call.
func callEffect(info *types.Info, call *ast.CallExpr) (k effectKind, what string, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return 0, "", false
	}
	base := scopeBase(fn.Pkg().Path())
	name := fn.Name()
	switch {
	case lockheldIOPkgs[base]:
		return effIO, base + "." + name, true
	case base == "sync" && name == "Wait":
		return effSyncWait, "sync Wait", true
	case base == "time" && name == "Sleep":
		return effSleep, "time.Sleep", true
	}
	if r := renderCall(info, call); r != "" {
		return effRender, r, true
	}
	return 0, "", false
}

// setEffect records the first witness for an effect kind.
func (s *funcSummary) setEffect(k effectKind, witness string) {
	if s.effects[k] == "" {
		s.effects[k] = witness
	}
}

// renderCall classifies a call that writes an HTTP response ("" when
// it does not): http.ResponseWriter Write/WriteHeader, http.Error and
// http.NotFound, and (json.Encoder).Encode — the primitives lockheld's
// snapshot-then-render rule cares about.
func renderCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	base := scopeBase(fn.Pkg().Path())
	name := fn.Name()
	switch {
	case base == "http" && (name == "Error" || name == "NotFound"):
		return "http." + name
	case base == "http" && (name == "Write" || name == "WriteHeader"):
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if namedTypeIn(info.Types[sel.X].Type, "ResponseWriter", "http") {
				return "ResponseWriter." + name
			}
		}
		// Interface method resolved through the named interface type.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if namedTypeIn(sig.Recv().Type(), "ResponseWriter", "http") {
				return "ResponseWriter." + name
			}
		}
	case base == "json" && name == "Encode":
		return "json.Encoder.Encode"
	}
	return ""
}
