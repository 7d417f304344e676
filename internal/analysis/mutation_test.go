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

// mutations plants one regression per analyzer into a real package —
// deleting an annotation, widening a guard, dropping a cancellation
// poll, retaining a recycled slab — and
// demands the suite catch it. This is the "removing any annotation or
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
		name:     "nilhook/widen-fault-guard",
		pkg:      "distjoin/internal/hybridq",
		analyzer: "nilhook",
		edits: []textEdit{{
			old: "if q.fault != nil {\n\t\tif err := q.fault(FaultSpill); err != nil {",
			new: "if true {\n\t\tif err := q.fault(FaultSpill); err != nil {",
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
		name:     "ctxpoll/drop-drain-poll",
		pkg:      "distjoin/internal/join",
		analyzer: "ctxpoll",
		edits: []textEdit{{
			old: "if err := c.cancelled(); err != nil {\n\t\t\treturn nil, err\n\t\t}\n\t\tp, ok := it.Next()",
			new: "p, ok := it.Next()",
		}},
	},
	{
		// The slab is touched after splitHeap recycles it: the next
		// spill's owner would race the read.
		name:     "poolsafe/retain-slab-after-put",
		pkg:      "distjoin/internal/hybridq",
		analyzer: "poolsafe",
		edits: []textEdit{{
			old: "\tbuf.items = items\n\tputPairBuf(buf)\n\tif q.tr.Enabled() {",
			new: "\tbuf.items = items\n\tputPairBuf(buf)\n\tspilled = len(buf.items)\n\tif q.tr.Enabled() {",
		}},
	},
	{
		// Compaction iterates the map instead of the insertion-order
		// slice: re-seed order becomes run-dependent.
		name:     "mapdet/range-comp-map",
		pkg:      "distjoin/internal/join",
		analyzer: "mapdet",
		edits: []textEdit{{
			old: "for _, key := range it.compOrder {",
			new: "for key := range it.compMap {",
		}},
	},
	{
		// The 504 row disappears from the canonical status table:
		// deadline-exceeded queries silently become 500s.
		name:     "servecontract/drop-504-mapping",
		pkg:      "distjoin/internal/serving",
		analyzer: "servecontract",
		edits: []textEdit{{
			old: "\tcase errors.Is(err, context.DeadlineExceeded):\n\t\tstatus = http.StatusGatewayTimeout\n\t\ts.metrics.Inc(distjoin.ServingDeadlineExceeded)\n",
			new: "",
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
