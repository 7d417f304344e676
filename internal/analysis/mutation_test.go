package analysis

import (
	"bytes"
	"os"
	"testing"
)

// TestSuiteCleanOnTree pins the zero-findings contract: the checked-in
// tree (with its //lint:allow annotations) produces no diagnostics.
// Every planted-mutation case below relies on this baseline — a
// mutation proving "removing X trips analyzer Y" is only meaningful if
// the unmutated tree is clean.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	units, err := sharedLoader.LoadPatterns("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, u := range units {
		diags, err := RunUnit(u, Suite())
		if err != nil {
			t.Fatalf("%s: %v", u.PkgPath, err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected finding: %s", u.PkgPath, d)
		}
	}
}

// textEdit replaces the first occurrence of old (searching the
// package's files in listing order) with new.
type textEdit struct{ old, new string }

// mutations plants regressions into real packages — deleting an
// annotation, blocking or rendering under a lock, dropping a
// cancellation poll, ranging over a map — at least one per analyzer,
// and demands the suite catch it. This is the "removing any annotation or
// guard fails CI" acceptance bar.
var mutations = []struct {
	name     string
	pkg      string // real import path to mutate
	analyzer string // analyzer that must fire
	edits    []textEdit
}{
	{
		name:     "floatcmp/strip-pair-less-allow",
		pkg:      "distjoin/internal/hybridq",
		analyzer: "floatcmp",
		edits: []textEdit{{
			old: "//lint:allow floatcmp bit-exact distance tie-break IS the determinism contract: one output order for a given index\n",
			new: "",
		}},
	},
	{
		// Query registration blocks while holding the registry lock:
		// every scrape and every other query's begin and end stall
		// behind it.
		name:     "lockheld/sleep-under-registry-lock",
		pkg:      "distjoin/internal/obsrv",
		analyzer: "lockheld",
		edits: []textEdit{{
			old: "\tr.mu.Lock()\n\tr.nextID++\n",
			new: "\tr.mu.Lock()\n\ttime.Sleep(time.Millisecond)\n\tr.nextID++\n",
		}},
	},
	{
		// The pipeline holds the cursor table still while it renders, so
		// that no sweep can drop the cursor a response names: the body is
		// written to the client under cursorTable.mu, which every cursor
		// request crosses. An endpoint cannot plant this (it has no
		// writer); the pipeline's respond is where rendering lives.
		name:     "lockheld/write-response-under-cursor-table-lock",
		pkg:      "distjoin/internal/serving",
		analyzer: "lockheld",
		edits: []textEdit{{
			old: "\twriteJSON(w, http.StatusOK, v)\n\treturn http.StatusOK\n",
			new: "\ts.cursors.mu.Lock()\n\twriteJSON(w, http.StatusOK, v)\n\ts.cursors.mu.Unlock()\n\treturn http.StatusOK\n",
		}},
	},
	{
		name:     "ctxpoll/drop-drain-poll",
		pkg:      "distjoin/internal/join",
		analyzer: "ctxpoll",
		edits: []textEdit{{
			old: "if err := c.cancelled(); err != nil {\n\t\t\treturn nil, err\n\t\t}\n\t\tp, ok := it.Next()",
			new: "p, ok := it.Next()",
		}},
	},
	{
		// The re-seed iterates the index instead of the bookkeeping-order
		// list: re-seed order becomes run-dependent.
		name:     "mapdet/range-comp-map",
		pkg:      "distjoin/internal/join",
		analyzer: "mapdet",
		edits: []textEdit{{
			old: "live := l.infos[:0]\n\tfor i := range l.infos {",
			new: "live := l.infos[:0]\n\tfor _, i := range l.at {",
		}},
	},
}

// TestPlantedMutations applies each mutation to an in-memory copy of
// the package sources (the tree on disk is never written) and runs the
// whole suite over the re-checked unit.
func TestPlantedMutations(t *testing.T) {
	for _, m := range mutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			names, err := sharedLoader.PackageFiles(m.pkg)
			if err != nil {
				t.Fatalf("listing %s: %v", m.pkg, err)
			}
			sources := make(map[string][]byte, len(names))
			for _, name := range names {
				src, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				sources[name] = src
			}
			for _, e := range m.edits {
				planted := false
				for _, name := range names {
					if bytes.Contains(sources[name], []byte(e.old)) {
						sources[name] = bytes.Replace(sources[name], []byte(e.old), []byte(e.new), 1)
						planted = true
						break
					}
				}
				if !planted {
					t.Fatalf("mutation target %q not found in %s; the fixture drifted from the tree", e.old, m.pkg)
				}
			}
			u, err := sharedLoader.CheckSources(m.pkg, sources)
			if err != nil {
				t.Fatalf("re-checking mutated %s: %v", m.pkg, err)
			}
			diags, err := RunUnit(u, Suite())
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			for _, d := range diags {
				if d.Analyzer == m.analyzer {
					fired++
				}
			}
			if fired == 0 {
				t.Fatalf("planted %s regression not caught; got %d other diagnostics: %v",
					m.analyzer, len(diags), diags)
			}
		})
	}
}
