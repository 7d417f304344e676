package join

import (
	"testing"

	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// drained returns the first n results of an incremental join.
func drained(open func() (*Iterator, error), n int) ([]Result, error) {
	it, err := open()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []Result
	for len(out) < n {
		res, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, res)
	}
	return out, it.Err()
}

// rankedAndWithin are the six ranked joins and WithinJoin, each
// returning its full result sequence.
var rankedAndWithin = map[string]func(l, r *rtree.Tree, o Options) ([]Result, error){
	"HS-KDJ":  func(l, r *rtree.Tree, o Options) ([]Result, error) { return HSKDJ(l, r, 150, o) },
	"B-KDJ":   memoQueries["B-KDJ"],
	"AM-KDJ":  memoQueries["AM-KDJ"],
	"SJ-SORT": func(l, r *rtree.Tree, o Options) ([]Result, error) { return SJSort(l, r, 150, 40, o) },
	"HS-IDJ": func(l, r *rtree.Tree, o Options) ([]Result, error) {
		return drained(func() (*Iterator, error) { return HSIDJ(l, r, o) }, 300)
	},
	"AM-IDJ": func(l, r *rtree.Tree, o Options) ([]Result, error) {
		o.BatchK = 25 // small stages: the band re-expansions re-read pages
		return drained(func() (*Iterator, error) { return AMIDJ(l, r, o) }, 400)
	},
	"WITHIN": memoQueries["WITHIN"],
}

// TestLentPagesMatchCopiedPages runs every join over trees whose
// MemStore lends the buffer pool its pages, and again over the same
// store behind a disarmed FaultStore, which the pool copies from. The
// pairs, every deterministic counter and the store reads must agree,
// whether the pools are one page short of the trees, hold exactly them,
// or have room to spare.
func TestLentPagesMatchCopiedPages(t *testing.T) {
	l, r := memoTestData()
	lbase, rbase := buildTree(t, l, 8), buildTree(t, r, 8)
	stores := []storage.Store{lbase.Pool().Store(), rbase.Pool().Store()}
	reads := func() (n int64) {
		for _, s := range stores {
			n += s.Stats().Reads
		}
		return n
	}
	for name, q := range rankedAndWithin {
		for _, regime := range poolRegimes {
			what := name + ", " + regime.name
			// run opens both trees over wrap(store) and runs q from cold
			// pools, returning its store reads with the results.
			run := func(wrap func(storage.Store) storage.Store) ([]Result, metrics.Collector, int64) {
				var trees [2]*rtree.Tree
				for i, s := range stores {
					tr, err := rtree.Open(wrap(s), (s.NumPages()+regime.spare)*s.PageSize())
					if err != nil {
						t.Fatal(err)
					}
					trees[i] = tr
				}
				before := reads()
				got, c := runCounted(t, q, trees[0], trees[1])
				return got, c, reads() - before
			}
			lent, lentC, lentReads := run(func(s storage.Store) storage.Store { return s })
			copied, copiedC, copiedReads := run(func(s storage.Store) storage.Store { return storage.NewFaultStore(s, -1) })
			if len(lent) == 0 || lentC.NodeAccessesPhysical == 0 {
				t.Fatalf("%s: %d results and %d physical reads; the query exercises nothing", what, len(lent), lentC.NodeAccessesPhysical)
			}
			sameRun(t, what+": lent against copied", lent, copied, lentC, copiedC)
			if lentReads != copiedReads {
				t.Fatalf("%s: %d store reads lent, %d copied", what, lentReads, copiedReads)
			}
		}
	}
}
