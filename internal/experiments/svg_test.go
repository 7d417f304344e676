package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func chartableTable() *Table {
	t := &Table{
		ID:      "figX",
		Title:   "demo <series> & data",
		Columns: []string{"k", "A", "B"},
	}
	t.AddRow("10", "100", "4000")
	t.AddRow("100", "900", "3500")
	t.AddRow("1000", "8000", "3000")
	return t
}

func TestSVGRendersChartableTable(t *testing.T) {
	var buf bytes.Buffer
	if err := chartableTable().SVG(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<svg", "</svg>", "polyline", "figX",
		"&lt;series&gt; &amp; data", // XML escaping
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// Two series => two polylines and two legend labels.
	if n := strings.Count(out, "<polyline"); n != 2 {
		t.Fatalf("%d polylines, want 2", n)
	}
	if !strings.Contains(out, ">A</text>") || !strings.Contains(out, ">B</text>") {
		t.Fatal("legend labels missing")
	}
}

func TestSVGRejectsNonNumeric(t *testing.T) {
	tab := &Table{ID: "t", Columns: []string{"a", "b"}}
	tab.AddRow("1", "2 (3)")
	if err := tab.SVG(&bytes.Buffer{}); err == nil {
		t.Fatal("non-numeric table must be rejected")
	}
	empty := &Table{ID: "e", Columns: []string{"a", "b"}}
	if err := empty.SVG(&bytes.Buffer{}); err == nil {
		t.Fatal("empty table must be rejected")
	}
	ragged := &Table{ID: "r", Columns: []string{"a", "b"}}
	ragged.Rows = append(ragged.Rows, []string{"1"})
	if err := ragged.SVG(&bytes.Buffer{}); err == nil {
		t.Fatal("ragged table must be rejected")
	}
}

func TestAxisScale(t *testing.T) {
	// Wide positive spread => log scale.
	a := newAxisScale([]float64{1, 10, 10000})
	if !a.log {
		t.Fatal("expected log scale")
	}
	if f := a.frac(1); f != 0 {
		t.Fatalf("frac(min) = %g", f)
	}
	if f := a.frac(10000); f != 1 {
		t.Fatalf("frac(max) = %g", f)
	}
	if f := a.frac(100); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("log midpoint frac = %g", f)
	}
	// Contains zero => linear.
	b := newAxisScale([]float64{0, 5, 10})
	if b.log {
		t.Fatal("zero forces linear scale")
	}
	if f := b.frac(5); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("linear midpoint frac = %g", f)
	}
	// Degenerate single value.
	c := newAxisScale([]float64{7})
	if f := c.frac(7); f < 0 || f > 1 {
		t.Fatalf("degenerate frac = %g", f)
	}
	d := newAxisScale(nil)
	if f := d.frac(0.5); f < 0 || f > 1 {
		t.Fatalf("empty-scale frac = %g", f)
	}
	// Clamping.
	if f := b.frac(-100); f != 0 {
		t.Fatalf("clamp low = %g", f)
	}
	if f := b.frac(1e9); f != 1 {
		t.Fatalf("clamp high = %g", f)
	}
}

func TestAxisTicks(t *testing.T) {
	log := newAxisScale([]float64{1, 1000})
	ticks := log.ticks()
	if len(ticks) < 3 {
		t.Fatalf("log ticks: %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if math.Abs(ticks[i]/ticks[i-1]-10) > 1e-9 {
			t.Fatalf("log ticks not decades: %v", ticks)
		}
	}
	lin := newAxisScale([]float64{0, 8})
	if got := lin.ticks(); len(got) != 5 || got[0] != 0 || got[4] != 8 {
		t.Fatalf("linear ticks: %v", got)
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		0:         "0",
		5:         "5",
		1500:      "1.5k",
		2_000_000: "2e6",
		0.001:     "1.0e-03",
	}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%g) = %q, want %q", v, got, want)
		}
	}
}

// Real experiment tables at tiny scale render.
func TestSVGOnRealExperiment(t *testing.T) {
	tabs, err := Run("fig12", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tabs {
		var buf bytes.Buffer
		if err := tab.SVG(&buf); err != nil {
			t.Fatalf("%s: %v", tab.ID, err)
		}
		if !strings.Contains(buf.String(), "<svg") {
			t.Fatalf("%s: no svg output", tab.ID)
		}
	}
}
