package extsort

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"distjoin/internal/metrics"
	"distjoin/internal/storage"
)

var f64Codec = Codec[float64]{
	Size: 8,
	Encode: func(buf []byte, v float64) {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
	},
	Decode: func(buf []byte) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(buf))
	},
}

func f64Less(a, b *float64) bool { return *a < *b }

func TestNewSorterValidation(t *testing.T) {
	if _, err := NewSorter(Codec[float64]{Size: 0}, f64Less, Config{}); err == nil {
		t.Fatal("zero record size must fail")
	}
	big := Codec[float64]{Size: 10000, Encode: f64Codec.Encode, Decode: f64Codec.Decode}
	if _, err := NewSorter(big, f64Less, Config{}); err == nil {
		t.Fatal("record bigger than page must fail")
	}
}

func sortAll(t *testing.T, vals []float64, memBytes int, mc *metrics.Collector) []float64 {
	t.Helper()
	s, err := NewSorter(f64Codec, f64Less, Config{
		MemBytes: memBytes,
		Metrics:  mc,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		s.Add(v)
	}
	if s.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(vals))
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	return out
}

func TestInMemorySort(t *testing.T) {
	vals := []float64{5, 2, 9, 1, 7, 3, 3}
	got := sortAll(t, vals, 1<<20, nil)
	want := append([]float64(nil), vals...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: %g != %g", i, got[i], want[i])
		}
	}
}

func TestExternalSortManyRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 20000)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	mc := &metrics.Collector{}
	got := sortAll(t, vals, 64*8, mc) // 64 records per run -> ~300 runs
	want := append([]float64(nil), vals...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: %g != %g", i, got[i], want[i])
		}
	}
	if mc.SortPageWrites == 0 || mc.SortPageReads == 0 {
		t.Fatalf("expected sort I/O: r=%d w=%d", mc.SortPageReads, mc.SortPageWrites)
	}
}

func TestEmptySort(t *testing.T) {
	got := sortAll(t, nil, 1024, nil)
	if len(got) != 0 {
		t.Fatalf("empty sort produced %d records", len(got))
	}
}

func TestSingleRecord(t *testing.T) {
	got := sortAll(t, []float64{42}, 8, nil)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got %v", got)
	}
}

func TestDuplicatesPreserved(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	got := sortAll(t, vals, 16*8, nil)
	counts := map[float64]int{}
	for _, v := range got {
		counts[v]++
	}
	for d := 0.0; d < 7; d++ {
		want := 1000 / 7
		if d < float64(1000%7) {
			want++
		}
		if counts[d] != want {
			t.Fatalf("value %g count %d, want %d", d, counts[d], want)
		}
	}
}

func TestAddAfterSortIgnored(t *testing.T) {
	s, err := NewSorter(f64Codec, f64Less, Config{MemBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1)
	if _, err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	s.Add(2)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after post-Sort Add, want 1", s.Len())
	}
}

func TestErrPropagation(t *testing.T) {
	st := storage.NewMemStore(storage.DefaultPageSize)
	s, err := NewSorter(f64Codec, f64Less, Config{MemBytes: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s.Add(1)
	st.Close()
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	if s.Err() == nil {
		t.Fatal("expected latched storage error")
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("Sort must surface the latched error")
	}
}

// Property: random data, random memory budgets — output always equals
// the reference sort.
func TestSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(3000)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Floor(rng.Float64() * 100) // many ties
		}
		mem := 8 * (1 + rng.Intn(200))
		got := sortAll(t, vals, mem, nil)
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d index %d: %g != %g", trial, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkExternalSort(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := NewSorter(f64Codec, f64Less, Config{MemBytes: 4096})
		for _, v := range vals {
			s.Add(v)
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}
