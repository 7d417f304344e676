package join

import (
	"errors"
	"math/rand"
	"testing"

	"distjoin/internal/datagen"
	"distjoin/internal/geom"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// buildTreeOnStore packs items onto the given store with a tiny buffer
// so queries actually hit the store.
func buildTreeOnStore(t *testing.T, items []rtree.Item, store storage.Store) *rtree.Tree {
	t.Helper()
	b, err := rtree.NewBuilderForPageSize(store.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	b.BulkLoad(items)
	tree, err := b.Pack(store, 4096)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// Every algorithm must surface injected R-tree storage failures as
// errors — never panic, hang, or return silently truncated results.
func TestJoinsSurfaceTreeStorageFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 400, w, 10)
	r := datagen.Uniform(rng.Int63(), 400, w, 10)

	algos := map[string]func(left, right *rtree.Tree) error{
		"HS-KDJ": func(left, right *rtree.Tree) error {
			_, err := HSKDJ(left, right, 200, Options{})
			return err
		},
		"B-KDJ": func(left, right *rtree.Tree) error {
			_, err := BKDJ(left, right, 200, Options{})
			return err
		},
		"AM-KDJ": func(left, right *rtree.Tree) error {
			_, err := AMKDJ(left, right, 200, Options{})
			return err
		},
		"SJ-SORT": func(left, right *rtree.Tree) error {
			_, err := SJSort(left, right, 200, 100, Options{})
			return err
		},
		// The incremental joins pull a bounded number of results: the
		// clean-run read budget is measured over the same pull count,
		// so every injected fault lands inside it.
		"HS-IDJ": func(left, right *rtree.Tree) error {
			it, err := HSIDJ(left, right, Options{})
			if err != nil {
				return err
			}
			for i := 0; i < 2000; i++ {
				if _, ok := it.Next(); !ok {
					return it.Err()
				}
			}
			return it.Err()
		},
		"AM-IDJ": func(left, right *rtree.Tree) error {
			it, err := AMIDJ(left, right, Options{BatchK: 500})
			if err != nil {
				return err
			}
			for i := 0; i < 2000; i++ {
				if _, ok := it.Next(); !ok {
					return it.Err()
				}
			}
			return it.Err()
		},
	}

	for name, run := range algos {
		// Learn how many store operations a clean run performs, then
		// inject faults at fractions of that budget.
		left := buildTree(t, l, 16)
		plain := storage.NewMemStore(4096)
		right := buildTreeOnStore(t, r, plain)
		baseline := plain.Stats().Reads
		if err := run(left, right); err != nil {
			t.Fatalf("%s: clean run failed: %v", name, err)
		}
		total := int(plain.Stats().Reads - baseline)
		if total < 2 {
			t.Fatalf("%s: clean run performed only %d reads", name, total)
		}
		for _, failAfter := range []int{0, total / 2, total - 1} {
			fault := storage.NewFaultStore(storage.NewMemStore(4096), -1)
			right := buildTreeOnStore(t, r, fault)
			fault.Arm(failAfter) // next failAfter operations succeed, then fail
			err := run(left, right)
			if err == nil {
				t.Fatalf("%s failAfter=%d/%d: fault not surfaced", name, failAfter, total)
			}
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s failAfter=%d: error %v does not wrap the injected fault",
					name, failAfter, err)
			}
		}
	}
}

// Queue spill faults (main-queue store) also surface cleanly.
func TestJoinsSurfaceQueueStorageFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	w := geom.NewRect(0, 0, 1000, 1000)
	l := datagen.Uniform(rng.Int63(), 400, w, 10)
	r := datagen.Uniform(rng.Int63(), 400, w, 10)
	left := buildTree(t, l, 16)
	right := buildTree(t, r, 16)

	// DisableQueueModel concentrates spills into one overflow segment
	// so page I/O actually happens at this small scale (the model's
	// many narrow segments would otherwise sit in write buffers).
	opts := func(qs storage.Store) Options {
		return Options{QueueMemBytes: 1024, QueueStore: qs, DisableQueueModel: true}
	}
	// Sanity: the configuration does reach the store at all.
	plain := storage.NewMemStore(4096)
	if _, err := BKDJ(left, right, 300, opts(plain)); err != nil {
		t.Fatal(err)
	}
	if st := plain.Stats(); st.Writes == 0 {
		t.Fatal("test premise broken: no queue page writes happened")
	}

	// The incremental joins pull as far as the k-distance joins rank.
	pull := func(it *Iterator, err error) error {
		if err != nil {
			return err
		}
		defer it.Close()
		for i := 0; i < 300; i++ {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		return it.Err()
	}
	for name, run := range map[string]func(qs storage.Store) error{
		"B-KDJ": func(qs storage.Store) error {
			_, err := BKDJ(left, right, 300, opts(qs))
			return err
		},
		"AM-KDJ": func(qs storage.Store) error {
			_, err := AMKDJ(left, right, 300, opts(qs))
			return err
		},
		"HS-KDJ": func(qs storage.Store) error {
			_, err := HSKDJ(left, right, 300, opts(qs))
			return err
		},
		"HS-IDJ": func(qs storage.Store) error { return pull(HSIDJ(left, right, opts(qs))) },
		"AM-IDJ": func(qs storage.Store) error {
			o := opts(qs)
			o.BatchK = 64
			return pull(AMIDJ(left, right, o))
		},
	} {
		qStore := storage.NewFaultStore(storage.NewMemStore(4096), 2)
		if err := run(qStore); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("%s: queue fault not surfaced: %v", name, err)
		}
	}
}
