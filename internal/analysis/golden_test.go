package analysis

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// sharedLoader amortizes the `go list -export` pass across every test
// in the package: the Loader caches export data and the FileSet.
var sharedLoader = &Loader{}

// goldenFixtures maps each analyzer to its testdata fixture packages.
// The synthetic import path ends with the directory's base name, which
// is how fixtures opt into scope-restricted analyzers (a path ending
// in /obsrv is "package obsrv" to the scope check).
var goldenFixtures = []struct {
	analyzer *Analyzer
	dir      string // under testdata/src
}{
	{Floatcmp, "floatcmp/a"},
	{Lockheld, "lockheld/obsrv"},
	{Lockheld, "lockheld/serving"},
	{Ctxpoll, "ctxpoll/join"},
	{Ctxpoll, "ctxpoll/serving"},
	{Mapdet, "mapdet/join"},
}

// wantRE matches analysistest-style expectations: a `// want "regex"`
// comment on the line the diagnostic must land on.
var wantRE = regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)

type wantExp struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// collectWants scans the unit's comments for want expectations.
func collectWants(t *testing.T, u *Unit) []*wantExp {
	t.Helper()
	var wants []*wantExp
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", u.Fset.Position(c.Pos()), m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", u.Fset.Position(c.Pos()), pat, err)
				}
				pos := u.Fset.Position(c.Pos())
				wants = append(wants, &wantExp{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// TestGoldenFixtures runs each analyzer over its fixture package and
// diffs the findings against the inline want expectations, both ways:
// every finding must be expected, every expectation must be found.
func TestGoldenFixtures(t *testing.T) {
	for _, fx := range goldenFixtures {
		fx := fx
		t.Run(fx.analyzer.Name+"/"+filepath.Base(fx.dir), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", filepath.FromSlash(fx.dir))
			u, err := sharedLoader.LoadDir(dir, "fixture/"+fx.dir)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags, err := RunUnit(u, []*Analyzer{fx.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, u)
			for _, d := range diags {
				matched := false
				for _, w := range wants {
					if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.used = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for _, w := range wants {
				if !w.used {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
		})
	}
}

// TestAllowAnnotationGrammar pins the annotation parser itself: a
// missing reason and an unknown analyzer name are findings, and a
// malformed allow does not suppress anything.
func TestAllowAnnotationGrammar(t *testing.T) {
	const src = `package allowfix

func pair() (float64, float64) { return 1, 2 }

//lint:allow floatcmp
func unsuppressed() bool {
	a, b := pair()
	return a == b
}

//lint:allow nosuch because reasons
func named() {}

//lint:allowance is a different directive entirely
func unrelated() {}
`
	u, err := sharedLoader.CheckSources("fixture/allowfix", map[string][]byte{
		"allowfix.go": []byte(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunUnit(u, Suite())
	if err != nil {
		t.Fatal(err)
	}
	var malformed, unknown, floatcmp int
	for _, d := range diags {
		switch {
		case d.Analyzer == "allow" && regexp.MustCompile("malformed").MatchString(d.Message):
			malformed++
		case d.Analyzer == "allow" && regexp.MustCompile("unknown analyzer").MatchString(d.Message):
			unknown++
		case d.Analyzer == "floatcmp":
			floatcmp++
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if malformed != 1 || unknown != 1 || floatcmp != 1 {
		t.Fatalf("got malformed=%d unknown=%d floatcmp=%d, want 1 each (diags: %v)",
			malformed, unknown, floatcmp, diags)
	}
}
