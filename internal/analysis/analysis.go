// Package analysis is the distjoin-vet lint suite: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) carrying four project-specific
// analyzers that turn the engine's correctness conventions into
// compile-time-checked invariants:
//
//   - floatcmp — no ==/!=/switch on non-constant float64 distance
//     values and no NaN-unsafe builtin min/max, outside annotated
//     bit-exact sites;
//   - lockheld — no storage/extsort I/O, channel operation, sync
//     blocking call, or HTTP response write while an obsrv/serving
//     mutex is held, resolved to arbitrary depth through per-function
//     call-graph summaries (see summary.go);
//   - ctxpoll — unbounded drain loops in join and serving (queue
//     pops, spill-run merges, iterator page fills) must contain the
//     cancellation/progress poll;
//   - mapdet — no map iteration, wall-clock reads, or math/rand on
//     determinism-critical paths (join, hybridq, pqueue, sweep,
//     extsort).
//
// Suppressions use the annotation grammar
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line, on the line directly above it, or in
// the doc comment of the enclosing function (covering the whole
// function). The reason is mandatory; a bare allow is itself reported.
// See docs/static-analysis.md.
//
// The suite has no external dependencies: type information comes from
// the gc export data the go command already produces (see load.go and
// cmd/distjoin-vet for the `go vet -vettool` unit-checker protocol).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow annotations.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// SkipTests excludes _test.go files from the pass. The suite guards
	// production paths; tests legitimately compare floats bit-exactly
	// and block under the locks they set up.
	SkipTests bool
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Unit is one type-checked package ready for analysis.
type Unit struct {
	// PkgPath is the package's import path. Analyzers scope
	// themselves by its path segments (see scopeBase).
	PkgPath string
	Fset    *token.FileSet
	// Files holds every parsed file of the unit, tests included.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// summaries caches the per-function call-graph effect summaries
	// (summary.go), built lazily by the first analyzer that needs
	// call-graph depth and shared by the rest of the suite.
	summaries *summaryTable
}

// A Pass carries one analyzer's view of one unit.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the unit's file list, with _test.go files removed when
	// the analyzer sets SkipTests.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	PkgPath   string

	unit   *Unit
	allows *allowIndex
	sink   *[]Diagnostic
}

// Reportf records a finding at pos unless an in-scope
// //lint:allow annotation suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allows.covers(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suite returns the four distjoin-vet analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{Floatcmp, Lockheld, Ctxpoll, Mapdet}
}

// RunUnit applies analyzers to one unit and returns the findings
// sorted by position. Malformed //lint:allow annotations are reported
// once per unit under the pseudo-analyzer name "allow".
func RunUnit(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := buildAllowIndex(u, analyzers)
	var diags []Diagnostic
	diags = append(diags, allows.malformed...)
	for _, a := range analyzers {
		files := u.Files
		if a.SkipTests {
			files = nil
			for _, f := range u.Files {
				if !strings.HasSuffix(u.Fset.Position(f.Pos()).Filename, "_test.go") {
					files = append(files, f)
				}
			}
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			PkgPath:   u.PkgPath,
			unit:      u,
			allows:    allows,
			sink:      &diags,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: running %s: %w", u.PkgPath, a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// allowPrefix introduces a suppression annotation.
const allowPrefix = "//lint:allow"

// allow is one parsed //lint:allow annotation with its line coverage.
type allow struct {
	analyzer  string
	reason    string
	file      string
	fromLine  int
	toLine    int
	annotLine int
}

// allowIndex resolves suppressions by (analyzer, file, line).
type allowIndex struct {
	allows    []allow
	malformed []Diagnostic
}

// buildAllowIndex scans every comment of the unit for allow
// annotations. An annotation inside a function's doc comment covers
// the whole function; otherwise it covers its own line and the line
// directly below it.
func buildAllowIndex(u *Unit, analyzers []*Analyzer) *allowIndex {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	idx := &allowIndex{}
	for _, f := range u.Files {
		// Doc-comment coverage: map each doc comment group to its
		// function's line range.
		docRange := make(map[*ast.CommentGroup][2]int)
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Doc != nil {
				docRange[fd.Doc] = [2]int{
					u.Fset.Position(fd.Pos()).Line,
					u.Fset.Position(fd.End()).Line,
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:allowance — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					idx.malformed = append(idx.malformed, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  fmt.Sprintf("malformed %s annotation: need %q", allowPrefix, allowPrefix+" <analyzer> <reason>"),
					})
					continue
				}
				name := fields[0]
				if len(known) > 0 && !known[name] {
					idx.malformed = append(idx.malformed, Diagnostic{
						Analyzer: "allow",
						Pos:      pos,
						Message:  fmt.Sprintf("%s names unknown analyzer %q", allowPrefix, name),
					})
					continue
				}
				a := allow{
					analyzer:  name,
					reason:    strings.Join(fields[1:], " "),
					file:      pos.Filename,
					fromLine:  pos.Line,
					toLine:    pos.Line + 1,
					annotLine: pos.Line,
				}
				if r, ok := docRange[cg]; ok {
					a.fromLine, a.toLine = r[0], r[1]
				}
				idx.allows = append(idx.allows, a)
			}
		}
	}
	return idx
}

// covers reports whether an allow for the named analyzer is in scope
// at position.
func (idx *allowIndex) covers(analyzer string, pos token.Position) bool {
	for _, a := range idx.allows {
		if a.analyzer == analyzer && a.file == pos.Filename &&
			pos.Line >= a.fromLine && pos.Line <= a.toLine {
			return true
		}
	}
	return false
}

// scopeBase returns the last segment of an import path — the handle
// analyzers use to scope themselves ("hybridq", "obsrv", "join", …).
// Fixture packages under testdata mimic real packages by ending their
// synthetic import paths with the same segment.
func scopeBase(pkgPath string) string {
	if i := strings.LastIndexByte(pkgPath, '/'); i >= 0 {
		return pkgPath[i+1:]
	}
	return pkgPath
}

// exampleTree reports whether the package lives under an examples/
// directory. Example programs demonstrate the public API and are not
// subject to the engine-internal scope rules keyed on the package
// basename (examples/serving is not internal/serving).
func exampleTree(pkgPath string) bool {
	for _, seg := range strings.Split(pkgPath, "/") {
		if seg == "examples" {
			return true
		}
	}
	return false
}
