// Command distjoin-vet is the project lint suite driver. It runs the
// four internal/analysis analyzers (floatcmp, lockheld, ctxpoll,
// mapdet) in two modes:
//
//	go vet -vettool=$(pwd)/bin/distjoin-vet ./...
//
// speaks the cmd/go unit-checker protocol: -V=full prints the cache
// fingerprint, -flags declares no extra flags, and an invocation with
// a single *.cfg argument type-checks exactly one package unit from
// the export data cmd/go staged and exits 2 when findings exist.
//
//	distjoin-vet [patterns...]
//
// (no .cfg argument) loads the matching packages directly through the
// module-aware loader — the mode the tests, ad-hoc runs, and the CI
// SARIF/allow-report steps use. Patterns default to ./....
//
// Standalone-only flags (never declared to the cmd/go protocol, so
// `go vet -vettool` is unaffected):
//
//	-sarif <file|->     also write findings as SARIF 2.1.0
//	-check-sarif <file> structurally validate a SARIF document
//	-allow-report       list every //lint:allow suppression with its
//	                    reason; exit 2 on reasonless or unknown-analyzer
//	                    annotations
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"distjoin/internal/analysis"
)

func main() {
	versionFlag := flag.String("V", "", "if 'full', print version fingerprint and exit (cmd/go protocol)")
	flagsFlag := flag.Bool("flags", false, "print the JSON flag declarations and exit (cmd/go protocol)")
	sarifFlag := flag.String("sarif", "", "standalone mode: also write findings as SARIF 2.1.0 to the named file (or - for stdout)")
	checkSarifFlag := flag.String("check-sarif", "", "validate the named SARIF file against the 2.1.0 subset and exit")
	allowReportFlag := flag.Bool("allow-report", false, "list every //lint:allow suppression with its reason; exit 2 on reasonless or unknown-analyzer annotations")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: distjoin-vet [patterns...]  |  go vet -vettool=distjoin-vet ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *versionFlag != "":
		printVersion()
	case *flagsFlag:
		// No analyzer-selection flags: the suite always runs whole.
		fmt.Println("[]")
	case *checkSarifFlag != "":
		os.Exit(runCheckSarif(*checkSarifFlag))
	case *allowReportFlag:
		os.Exit(runAllowReport(flag.Args()))
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(runUnitchecker(flag.Arg(0)))
	default:
		os.Exit(runPatterns(flag.Args(), *sarifFlag))
	}
}

// printVersion emits the content-addressed fingerprint cmd/go uses as
// the vet cache key: rebuilding the tool invalidates prior results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("distjoin-vet version devel buildID=%x\n", h.Sum(nil))
}

// vetConfig mirrors the JSON file cmd/go writes for each unit under
// `go vet -vettool` (the subset this driver consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnitchecker analyzes one package unit described by a cmd/go
// vet.cfg file and returns the process exit code (0 clean, 1 tool
// failure, 2 findings).
func runUnitchecker(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return fail(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fail(fmt.Errorf("parsing %s: %v", cfgPath, err))
	}
	// The suite exports no facts, so downstream units need nothing from
	// this one: write the (empty) facts file unconditionally so cmd/go
	// finds what the config promised.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return fail(err)
		}
	}
	if cfg.VetxOnly {
		return 0 // facts-only invocation: nothing to report
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			return fail(err)
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{Importer: imp}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		return fail(fmt.Errorf("type-checking %s: %v", cfg.ImportPath, err))
	}
	unit := &analysis.Unit{
		PkgPath: cfg.ImportPath,
		Fset:    fset,
		Files:   files,
		Pkg:     pkg,
		Info:    info,
	}
	diags, err := analysis.RunUnit(unit, analysis.Suite())
	if err != nil {
		return fail(err)
	}
	return report(diags)
}

// runPatterns is the standalone mode: load packages by go list
// patterns and analyze them all, optionally mirroring the findings to
// a SARIF file for CI upload.
func runPatterns(patterns []string, sarifOut string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := &analysis.Loader{}
	units, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return fail(err)
	}
	var all []analysis.Diagnostic
	for _, u := range units {
		diags, err := analysis.RunUnit(u, analysis.Suite())
		if err != nil {
			return fail(err)
		}
		all = append(all, diags...)
	}
	if sarifOut != "" {
		if err := writeSARIFFile(sarifOut, all); err != nil {
			return fail(err)
		}
	}
	return report(all)
}

// writeSARIFFile renders diags as SARIF relative to the working
// directory (the module root in CI).
func writeSARIFFile(path string, diags []analysis.Diagnostic) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return analysis.WriteSARIF(w, root, analysis.Suite(), diags)
}

// runCheckSarif validates a SARIF document and reports the verdict.
func runCheckSarif(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	if err := analysis.ValidateSARIF(data); err != nil {
		return fail(err)
	}
	fmt.Printf("%s: valid SARIF %s\n", path, "2.1.0")
	return 0
}

// runAllowReport lists every suppression with its reason and fails on
// malformed ones, so a reasonless //lint:allow cannot merge silently.
func runAllowReport(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := &analysis.Loader{}
	units, err := loader.LoadPatterns(patterns...)
	if err != nil {
		return fail(err)
	}
	allows, malformed := analysis.CollectAllows(units, analysis.Suite())
	for _, a := range allows {
		fmt.Printf("%s:%d: %s: %s\n", a.File, a.Line, a.Analyzer, a.Reason)
	}
	fmt.Printf("%d suppression(s)\n", len(allows))
	if len(malformed) > 0 {
		for _, d := range malformed {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
		}
		return 2
	}
	return 0
}

// report prints findings in the file:line:col form cmd/go relays and
// returns the exit code.
func report(diags []analysis.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", d.Pos, d.Analyzer, d.Message)
	}
	return 2
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "distjoin-vet: %v\n", err)
	return 1
}
