package benchrec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distjoin/internal/metrics"
)

func baseRecord() *Record {
	return &Record{
		Schema: SchemaVersion,
		Scale:  0.02,
		Seed:   20000516,
		Entries: []Entry{
			{Name: "AM-KDJ/k=200", Algo: "AM-KDJ", K: 200,
				DistCalcs: 10000, QueueInserts: 5000,
				NodesLogical: 400, NodesPhysical: 100, Results: 200, CompStages: 1},
			{Name: "B-KDJ/k=200", Algo: "B-KDJ", K: 200,
				DistCalcs: 10000, QueueInserts: 5000, Results: 200},
		},
	}
}

func clone(r *Record) *Record {
	c := *r
	c.Entries = append([]Entry(nil), r.Entries...)
	return &c
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rec := baseRecord()
	if err := WriteFile(path, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || len(back.Entries) != 2 || back.Entries[0] != rec.Entries[0] {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	// Identical records: no findings, gate passes.
	findings, err := Compare(rec, back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("identical records produced findings: %v", findings)
	}
}

func TestReadFileRejectsBadRecords(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"schema.json", `{"schema": 99, "entries": []}`, "schema 99"},
		{"old.json", `{"schema": 1, "entries": [{"name":"a"}]}`, "schema 1"},
		{"dup.json", `{"schema": 2, "entries": [{"name":"a"},{"name":"a"}]}`, "duplicate"},
		{"unnamed.json", `{"schema": 2, "entries": [{"algo":"x"}]}`, "empty name"},
		{"garbage.json", `{]`, "invalid"},
	} {
		if _, err := ReadFile(write(tc.name, tc.body)); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCompareGatesCounterRegressions(t *testing.T) {
	old := baseRecord()
	cur := clone(old)
	cur.Entries[0].DistCalcs = 13000 // +30% > 25% threshold

	findings, err := Compare(old, cur, Options{Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Metric != "dist_calcs" {
		t.Fatalf("findings = %v, want one dist_calcs regression", findings)
	}
	// Just under threshold: clean.
	cur.Entries[0].DistCalcs = 12400 // +24%
	if findings, _ = Compare(old, cur, Options{Threshold: 0.25}); len(findings) != 0 {
		t.Fatalf("sub-threshold growth flagged: %v", findings)
	}
}

func TestCompareAbsFloorSuppressesTinyDeltas(t *testing.T) {
	old := baseRecord()
	old.Entries[0].CompStages = 2
	cur := clone(old)
	cur.Entries[0].CompStages = 3 // +50% relative, +1 absolute
	findings, err := Compare(old, cur, Options{Threshold: 0.25, AbsFloor: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("abs-floor did not suppress single-unit growth: %v", findings)
	}
}

func TestCompareResultCardinalityChangeGates(t *testing.T) {
	old := baseRecord()
	cur := clone(old)
	cur.Entries[0].Results = 150 // join answer changed: always wrong
	findings, err := Compare(old, cur, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Metric != "results" {
		t.Fatalf("result-count change did not gate: %v", findings)
	}
}

func TestCompareErrors(t *testing.T) {
	old := baseRecord()
	// Different workload identity.
	cur := clone(old)
	cur.Scale = 0.05
	if _, err := Compare(old, cur, Options{}); err == nil {
		t.Fatal("scale mismatch not rejected")
	}
	// Lost coverage.
	cur = clone(old)
	cur.Entries = cur.Entries[:1]
	if _, err := Compare(old, cur, Options{}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("lost entry err = %v", err)
	}
	// Extra entries in the candidate are fine.
	cur = clone(old)
	cur.Entries = append(cur.Entries, Entry{Name: "new-coverage"})
	if _, err := Compare(old, cur, Options{}); err != nil {
		t.Fatalf("extra entry rejected: %v", err)
	}
}

func TestFromCollector(t *testing.T) {
	mc := &metrics.Collector{}
	mc.AddRealDist(3)
	mc.AddAxisDist(4)
	mc.AddMainQueueInsert(5)
	mc.AddResult(2)
	e := FromCollector("AM-KDJ/k=2", "AM-KDJ", 2, mc, 4096)
	if e.DistCalcs != 7 || e.QueueInserts != 5 || e.Results != 2 {
		t.Fatalf("counters not captured: %+v", e)
	}
	if e.AllocBytes != 4096 {
		t.Fatalf("allocation not captured: %+v", e)
	}
}
