package distjoin

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
)

// TestWriteStatsGolden pins both Stats exporters byte for byte for one
// fixed collector: every exported field carries a distinct value (its
// 1-based position times 1e6, so durations are whole milliseconds), so
// a renamed, reordered, retyped or dropped family shows up as a diff
// against testdata/stats.golden.{prom,json}.
func TestWriteStatsGolden(t *testing.T) {
	st := &Stats{}
	v := reflect.ValueOf(st).Elem()
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).IsExported() {
			n++
			v.Field(i).SetInt(int64(n) * 1e6)
		}
	}
	for _, tc := range []struct {
		golden string
		write  func(io.Writer, *Stats) error
	}{
		{"testdata/stats.golden.prom", WriteStatsProm},
		{"testdata/stats.golden.json", WriteStatsJSON},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf, st); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("output differs from %s; got:\n%s", tc.golden, buf.Bytes())
		}
	}
}
