package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// fillPages allocates n pages of pageSize on s, page id filled with
// byte(id+1).
func fillPages(t testing.TB, s Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		id, err := s.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(id, bytes.Repeat([]byte{byte(id + 1)}, s.PageSize())); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBufferPoolMatchesLRUModel replays random access sequences against
// a reference LRU, a slice of page IDs in recency order, and requires
// the same hit and eviction on every access and the page's bytes back,
// over a lending MemStore and over the same kind of store behind a
// FaultStore, which the pool copies from. The store grows halfway
// through, and the pool is invalidated now and then.
func TestBufferPoolMatchesLRUModel(t *testing.T) {
	const pageSize = 64
	for _, frames := range []int{1, 2, 3, 7, 40} {
		for _, lends := range []bool{true, false} {
			name := fmt.Sprintf("%d frames, lends %v", frames, lends)
			mem := NewMemStore(pageSize)
			var store Store = mem
			if !lends {
				store = NewFaultStore(mem, -1)
			}
			fillPages(t, store, 12)
			p := NewBufferPool(store, frames*pageSize)
			if (p.mem != nil) != lends {
				t.Fatalf("%s: the pool lends: %v", name, p.mem != nil)
			}
			rng := rand.New(rand.NewSource(int64(frames)))
			var lru []PageID // most recently used first
			for step := 0; step < 4000; step++ {
				if step == 2000 {
					fillPages(t, store, 12)
				}
				if rng.Intn(500) == 0 {
					if err := p.Invalidate(); err != nil {
						t.Fatal(err)
					}
					lru = lru[:0]
				}
				id := PageID(rng.Intn(store.NumPages()))
				data, acc, err := p.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				at := slices.Index(lru, id)
				var evicted int64
				if at >= 0 {
					lru = slices.Delete(lru, at, at+1)
				} else if len(lru) == frames {
					lru, evicted = lru[:frames-1], 1
				}
				lru = slices.Insert(lru, 0, id)
				if acc.Hit != (at >= 0) || acc.Evictions != evicted {
					t.Fatalf("%s, step %d, page %d: hit %v evictions %d, want %v %d", name, step, id, acc.Hit, acc.Evictions, at >= 0, evicted)
				}
				if len(data) != pageSize || cap(data) != pageSize || data[0] != byte(id+1) || data[pageSize-1] != byte(id+1) {
					t.Fatalf("%s, step %d: page %d reads %d..%d (len %d cap %d)", name, step, id, data[0], data[len(data)-1], len(data), cap(data))
				}
			}
		}
	}
}

// TestLentPageCopyOnWrite: a write to a page a pool has been lent
// leaves the lent bytes as they were, and so what the pool hands out
// for its cached frame, while a fresh pool reads the new bytes. This is
// what a pool that copies on every miss gives too.
func TestLentPageCopyOnWrite(t *testing.T) {
	s := NewMemStore(128)
	fillPages(t, s, 2)
	p := NewBufferPool(s, 2*128)
	lent, _, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Clone(lent)
	if err := s.WritePage(1, bytes.Repeat([]byte{0xEE}, 128)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lent, old) {
		t.Fatal("a write changed the bytes of a lent page")
	}
	if again, acc, err := p.Get(1); err != nil || !acc.Hit || !bytes.Equal(again, old) {
		t.Fatalf("the pool's cached frame: hit %v err %v, bytes changed %v", acc.Hit, err, !bytes.Equal(again, old))
	}
	fresh, acc, err := NewBufferPool(s, 2*128).Get(1)
	if err != nil || acc.Hit || fresh[0] != 0xEE {
		t.Fatalf("a fresh pool: hit %v err %v first byte %#x, want a miss reading 0xee", acc.Hit, err, fresh[0])
	}
	if st := s.Stats(); st.Reads != 2 || st.Writes != 3 {
		t.Fatalf("store stats %+v: every lend is one read", st)
	}
}

// TestBufferPoolAllocs pins what a miss costs: nothing over a MemStore,
// whether it evicts or not; nothing over a FileStore either when every
// pin is released, since the next miss reads into the evicted frame;
// and one page buffer for a Get miss, whose bytes are never reused. A
// hit costs nothing, pinned or not.
func TestBufferPoolAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on its own; allocation counts are not meaningful")
	}
	mem := NewMemStore(DefaultPageSize)
	fillPages(t, mem, 8)
	file, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"), DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	fillPages(t, file, 8)

	// Each case gets the store's eight pages in turn through a pool of
	// frames, after warm gets, by Get or by Pin and Release; with four
	// frames every get is a miss that evicts. AllocsPerRun makes runs+1
	// gets, its first a warm-up.
	for _, tc := range []struct {
		name               string
		store              Store
		frames, warm, runs int
		hit, pin           bool
		want               float64
	}{
		{"MemStore miss", mem, 8, 0, 7, false, false, 0},
		{"MemStore hit", mem, 8, 8, 100, true, false, 0},
		{"MemStore miss that evicts", mem, 4, 8, 100, false, false, 0},
		{"FileStore Get miss that evicts", file, 4, 8, 100, false, false, 1},
		{"FileStore pinned miss that evicts", file, 4, 8, 100, false, true, 0},
		{"FileStore pinned hit", file, 8, 8, 100, true, true, 0},
	} {
		p := NewBufferPool(tc.store, tc.frames*DefaultPageSize)
		next := 0
		get := func() {
			id := PageID(next % 8)
			next++
			if !tc.pin {
				if _, _, err := p.Get(id); err != nil {
					t.Fatal(err)
				}
				return
			}
			f, _, err := p.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
		for i := 0; i < tc.warm; i++ {
			get()
		}
		before := p.Stats()
		if got := testing.AllocsPerRun(tc.runs, get); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
		st, gets := p.Stats(), int64(tc.runs+1)
		var hits, evictions int64
		if tc.hit {
			hits = gets
		} else if tc.frames < 8 {
			evictions = gets
		}
		if st.Hits-before.Hits != hits || st.Evictions-before.Evictions != evictions {
			t.Errorf("%s: %d gets made %d hits and %d evictions, want %d and %d", tc.name, gets,
				st.Hits-before.Hits, st.Evictions-before.Evictions, hits, evictions)
		}
	}
}

// BenchmarkBufferPool isolates the pool layer on 4 KB pages: a hit, a
// miss on a MemStore (lent, no copy), a Get miss on a FileStore (read
// into a fresh page) and a pinned one (read into the frame the last
// miss evicted, released at once). The misses cycle 64 pages through 4
// frames, so every get evicts.
func BenchmarkBufferPool(b *testing.B) {
	const pages = 64
	mem := NewMemStore(DefaultPageSize)
	fillPages(b, mem, pages)
	file, err := CreateFileStore(filepath.Join(b.TempDir(), "pages.db"), DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer file.Close()
	fillPages(b, file, pages)
	for _, bc := range []struct {
		name   string
		store  Store
		frames int
		pin    bool
	}{
		{"hit", mem, pages, false},
		{"miss-memstore", mem, 4, false},
		{"miss-filestore", file, 4, false},
		{"miss-filestore-pinned", file, 4, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := NewBufferPool(bc.store, bc.frames*DefaultPageSize)
			get := func(id PageID) {
				if !bc.pin {
					if _, _, err := p.Get(id); err != nil {
						b.Fatal(err)
					}
					return
				}
				f, _, err := p.Pin(id)
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
			for id := PageID(0); id < pages; id++ {
				get(id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(PageID(i % pages))
			}
		})
	}
}

// TestPinnedFrameSurvivesEviction: a pinned page keeps its bytes while
// other pins evict it, twice over, and its buffer serves no other page
// while pinned — nor after Release, since it was evicted while pinned.
// A frame released before its eviction is what the next miss reads
// into. Over a MemStore the frames lend the store's pages, and cycling
// them through the free list must leave every page as it was written.
func TestPinnedFrameSurvivesEviction(t *testing.T) {
	const pageSize, pages = 128, 8
	file, err := CreateFileStore(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for _, store := range []Store{file, NewMemStore(pageSize)} {
		name := fmt.Sprintf("%T", store)
		fillPages(t, store, pages)
		p := NewBufferPool(store, 2*pageSize)
		pin := func(id PageID) (*Frame, Access) {
			t.Helper()
			f, acc, err := p.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			if b := f.Bytes(); len(b) != pageSize || b[0] != byte(id+1) || b[pageSize-1] != byte(id+1) {
				t.Fatalf("%s: page %d reads %d..%d", name, id, b[0], b[len(b)-1])
			}
			return f, acc
		}
		// cycle pins and releases pages 1..7 twice, each a miss in two
		// frames, and requires none of them to land in buffer held.
		cycle := func(held *byte) {
			t.Helper()
			for round := 0; round < 2; round++ {
				for id := PageID(1); id < pages; id++ {
					f, acc := pin(id)
					if acc.Hit {
						t.Fatalf("%s: page %d hit in a pool of two frames", name, id)
					}
					if &f.Bytes()[0] == held {
						t.Fatalf("%s: page %d was read into the buffer of a frame evicted while pinned", name, id)
					}
					f.Release()
				}
			}
		}

		held, _ := pin(0)
		want := bytes.Clone(held.Bytes())
		cycle(&held.Bytes()[0])
		if !bytes.Equal(held.Bytes(), want) {
			t.Fatalf("%s: a pinned page changed while other pages evicted it", name)
		}
		heldBuf := &held.Bytes()[0]
		held.Release()
		cycle(heldBuf)

		// The pool holds pages 7 and 6; each miss below evicts the older.
		again, acc := pin(0) // evicts 6
		if acc.Hit {
			t.Fatalf("%s: page 0 was not evicted", name)
		}
		buf := &again.Bytes()[0]
		again.Release()
		for _, id := range []PageID{1, 2} { // the second evicts page 0, unpinned
			f, _ := pin(id)
			f.Release()
		}
		next, _ := pin(3)
		if reused := &next.Bytes()[0] == buf; reused != (store == file) {
			t.Fatalf("%s: the miss after page 0's eviction read into its buffer: %v", name, reused)
		}
		next.Release()

		got := make([]byte, pageSize)
		for id := PageID(0); id < pages; id++ {
			if err := store.ReadPage(id, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{byte(id + 1)}, pageSize)) {
				t.Fatalf("%s: page %d of the store changed", name, id)
			}
		}
	}
}

// TestPinnedFrameDoubleReleasePanics: a Release without a pin panics
// and leaves the frame as it was, so a frame another reader holds can
// never look unpinned.
func TestPinnedFrameDoubleReleasePanics(t *testing.T) {
	s := NewMemStore(64)
	fillPages(t, s, 1)
	p := NewBufferPool(s, 64)
	f, _, err := p.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	f.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a second Release did not panic")
			}
		}()
		f.Release()
	}()
	if n := f.pins.Load(); n != 0 {
		t.Fatalf("after the panic the frame holds %d pins, want 0", n)
	}
}
