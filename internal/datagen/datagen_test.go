package datagen

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

func checkItems(t *testing.T, items []rtree.Item, n int) {
	t.Helper()
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	seen := map[int64]bool{}
	for i, it := range items {
		if !it.Rect.Valid() {
			t.Fatalf("item %d invalid rect %v", i, it.Rect)
		}
		if !World.Contains(it.Rect) {
			t.Fatalf("item %d escapes world: %v", i, it.Rect)
		}
		if seen[it.Obj] {
			t.Fatalf("duplicate object id %d", it.Obj)
		}
		seen[it.Obj] = true
	}
}

func TestUniform(t *testing.T) {
	items := Uniform(1, 5000, World, 100)
	checkItems(t, items, 5000)
	// Roughly uniform: each quadrant holds 15-35%.
	c := World.Center()
	quad := [4]int{}
	for _, it := range items {
		ic := it.Rect.Center()
		idx := 0
		if ic.X > c.X {
			idx |= 1
		}
		if ic.Y > c.Y {
			idx |= 2
		}
		quad[idx]++
	}
	for i, q := range quad {
		if q < 750 || q > 1750 {
			t.Fatalf("quadrant %d has %d items; not uniform", i, q)
		}
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := Uniform(7, 100, World, 10)
	b := Uniform(7, 100, World, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := Uniform(8, 100, World, 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGaussianClustersSkew(t *testing.T) {
	items := GaussianClusters(2, 5000, 5, World, 2000, 50)
	checkItems(t, items, 5000)
	// Clustered data must be far less uniform than uniform data:
	// compare occupancy of a 10x10 grid.
	occupied := gridOccupancy(items, 10)
	if occupied > 60 {
		t.Fatalf("clustered data occupies %d/100 cells; expected concentration", occupied)
	}
	uni := gridOccupancy(Uniform(2, 5000, World, 50), 10)
	if uni < 95 {
		t.Fatalf("uniform data occupies only %d/100 cells", uni)
	}
}

// gridCountCV returns the coefficient of variation of per-cell item
// counts on a g x g grid — near 0 for uniform data, large for skew.
func gridCountCV(items []rtree.Item, g int) float64 {
	counts := make([]float64, g*g)
	for _, it := range items {
		c := it.Rect.Center()
		ix := int((c.X - World.MinX) / World.Side(0) * float64(g))
		iy := int((c.Y - World.MinY) / World.Side(1) * float64(g))
		if ix >= g {
			ix = g - 1
		}
		if iy >= g {
			iy = g - 1
		}
		counts[ix*g+iy]++
	}
	mean := float64(len(items)) / float64(g*g)
	var ss float64
	for _, c := range counts {
		ss += (c - mean) * (c - mean)
	}
	return math.Sqrt(ss/float64(g*g)) / mean
}

func gridOccupancy(items []rtree.Item, g int) int {
	cells := map[int]bool{}
	for _, it := range items {
		c := it.Rect.Center()
		ix := int((c.X - World.MinX) / World.Side(0) * float64(g))
		iy := int((c.Y - World.MinY) / World.Side(1) * float64(g))
		if ix >= g {
			ix = g - 1
		}
		if iy >= g {
			iy = g - 1
		}
		cells[ix*g+iy] = true
	}
	return len(cells)
}

func TestTigerStreets(t *testing.T) {
	items := TigerStreets(3, 20000)
	checkItems(t, items, 20000)
	// Street segments are skewed/clustered like the real thing.
	if occ := gridOccupancy(items, 10); occ > 95 {
		t.Fatalf("streets occupy %d/100 cells; expected clustering", occ)
	}
	// Thin elongated MBRs dominate: median aspect ratio far from 1 or
	// tiny sides. Sanity: most segments shorter than 2km on their long
	// side.
	long := 0
	for _, it := range items {
		side := math.Max(it.Rect.Side(0), it.Rect.Side(1))
		if side > 2000 {
			long++
		}
	}
	if long > len(items)/4 {
		t.Fatalf("%d of %d street segments longer than 2km", long, len(items))
	}
}

func TestTigerHydro(t *testing.T) {
	items := TigerHydro(4, 8000)
	checkItems(t, items, 8000)
	// Rivers cross the whole map, so occupancy is near-total; skew
	// shows up as high per-cell count variation instead.
	if cv, ucv := gridCountCV(items, 10), gridCountCV(Uniform(4, 8000, World, 50), 10); cv < 2*ucv {
		t.Fatalf("hydro count CV %.2f not clearly above uniform %.2f", cv, ucv)
	}
	// Hydro MBRs have nonzero area (rivers are inflated, lakes are
	// blobs) — unlike axis-parallel street segments.
	zeroArea := 0
	for _, it := range items {
		if it.Rect.Area() == 0 {
			zeroArea++
		}
	}
	if zeroArea > len(items)/20 {
		t.Fatalf("%d hydro objects with zero area", zeroArea)
	}
}

func TestTigerDeterministic(t *testing.T) {
	a := TigerStreets(5, 1000)
	b := TigerStreets(5, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streets diverged at %d", i)
		}
	}
	c := TigerHydro(5, 1000)
	d := TigerHydro(5, 1000)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("hydro diverged at %d", i)
		}
	}
}

func TestBounds(t *testing.T) {
	if Bounds(nil) != (geom.Rect{}) {
		t.Fatal("empty bounds must be zero")
	}
	items := []rtree.Item{
		{Rect: geom.NewRect(1, 2, 3, 4)},
		{Rect: geom.NewRect(-1, 5, 2, 9)},
	}
	if got := Bounds(items); got != (geom.Rect{MinX: -1, MinY: 2, MaxX: 3, MaxY: 9}) {
		t.Fatalf("Bounds = %v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	items := Uniform(9, 1234, World, 42)
	path := filepath.Join(t.TempDir(), "data.djds")
	if err := WriteFile(path, items); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("read %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a dataset file at all"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
	var buf bytes.Buffer
	if err := WriteTo(&buf, []rtree.Item{{Rect: geom.NewRect(0, 0, 1, 1), Obj: 1}}); err != nil {
		t.Fatal(err)
	}
	// Truncated record.
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated file must be rejected")
	}
}

func TestReadRejectsInvalidRect(t *testing.T) {
	var buf bytes.Buffer
	item := rtree.Item{Rect: geom.NewRect(0, 0, 1, 1), Obj: 1}
	if err := WriteTo(&buf, []rtree.Item{item}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Corrupt MinX (record starts after the 16-byte header; the first
	// 8 record bytes are the object id) to NaN.
	for i := 24; i < 32; i++ {
		raw[i] = 0xFF
	}
	if _, err := ReadFrom(bytes.NewReader(raw)); err == nil {
		t.Fatal("NaN rect must be rejected")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadPicksFormatByExtension: a ".csv" path is read as CSV, any
// other as the binary format, and a missing file is an error either way.
func TestLoadPicksFormatByExtension(t *testing.T) {
	items := Uniform(13, 300, World, 30)
	dir := t.TempDir()
	bin, csv := filepath.Join(dir, "d.djds"), filepath.Join(dir, "d.csv")
	if err := WriteFile(bin, items); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, items); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(csv, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{bin, csv} {
		got, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !slices.Equal(got, items) {
			t.Fatalf("%s: read %d items, not the %d written", path, len(got), len(items))
		}
	}
	for _, path := range []string{filepath.Join(dir, "missing.djds"), filepath.Join(dir, "missing.csv")} {
		if _, err := Load(path); err == nil {
			t.Fatalf("%s: missing file must error", path)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	items := Uniform(12, 500, World, 30)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, items); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("read %d, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d: %+v vs %+v", i, got[i], items[i])
		}
	}
}

func TestCSVCommentsAndBlanks(t *testing.T) {
	in := "# header comment\n\n1, 0, 0, 2, 2\n  # indented comment\n2,5,5,3,3\n"
	got, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d, want 2", len(got))
	}
	// Coordinates normalized (min <= max).
	if got[1].Rect != (geom.Rect{MinX: 3, MinY: 3, MaxX: 5, MaxY: 5}) {
		t.Fatalf("rect not normalized: %v", got[1].Rect)
	}
}

func TestCSVErrors(t *testing.T) {
	for _, bad := range []string{
		"1,2,3\n",           // too few fields
		"x,0,0,1,1\n",       // bad id
		"1,a,0,1,1\n",       // bad coordinate
		"1,NaN,0,1,1\n",     // invalid rect
		"1,0,0,1,1,extra\n", // too many fields
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Fatalf("%q must be rejected", bad)
		}
	}
}
