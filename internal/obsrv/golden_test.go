package obsrv

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// volatilePromRE matches the sample values of the exposition that
// depend on the wall clock: the uptime gauge, and the buckets and sum
// of the query-latency histogram (Query.End observes time.Since). The
// names, labels and le bounds stay pinned; only the value is masked.
var volatilePromRE = regexp.MustCompile(`(?m)^(distjoin_registry_uptime_seconds|distjoin_query_latency_seconds_(?:bucket|sum)\{[^}]*\}) \S+$`)

// TestWritePromGolden pins Registry.WriteProm byte for byte: every
// family name, HELP text, TYPE, label set, sample order and value the
// populated registry exposes. A change to any exporter table shows up
// here as a diff against testdata/metrics.golden.
func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := populatedRegistry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got := volatilePromRE.ReplaceAll(buf.Bytes(), []byte("$1 <clock>"))
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exposition differs from testdata/metrics.golden; got:\n%s", got)
	}
}
