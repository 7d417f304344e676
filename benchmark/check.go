package main

import (
	"fmt"
	"math"

	"distjoin"
)

// The correctness phase runs before any timing. An answer is accepted
// only if an independent algorithm agrees with it: AM-KDJ (what the
// workloads time) against B-KDJ, the single-stage algorithm with no
// estimate and no compensation stage.

// checkPair verifies that a pair names two input rectangles and that
// its distance is exactly their minimum distance.
func checkPair(ds dataset, p distjoin.Pair) error {
	if p.LeftID < 0 || p.LeftID >= int64(len(ds.streets)) || p.RightID < 0 || p.RightID >= int64(len(ds.hydro)) {
		return fmt.Errorf("pair names unknown objects (%d, %d)", p.LeftID, p.RightID)
	}
	want := ds.streets[p.LeftID].Rect.MinDist(ds.hydro[p.RightID].Rect)
	if math.Float64bits(p.Dist) != math.Float64bits(want) {
		return fmt.Errorf("pair (%d, %d): dist %v, MinDist of the inputs is %v", p.LeftID, p.RightID, p.Dist, want)
	}
	return nil
}

// checkPairs verifies the properties every ranked answer must have on
// its own: every pair real, and distances nondecreasing.
func checkPairs(ds dataset, pairs []distjoin.Pair) error {
	for i, p := range pairs {
		if err := checkPair(ds, p); err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
		if i > 0 && p.Dist < pairs[i-1].Dist {
			return fmt.Errorf("pair %d: dist %v after %v, not nondecreasing", i, p.Dist, pairs[i-1].Dist)
		}
	}
	return nil
}

func samePairs(got, want []distjoin.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.LeftID != w.LeftID || g.RightID != w.RightID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			return fmt.Errorf("pair %d is (%d, %d, %v), reference has (%d, %d, %v)",
				i, g.LeftID, g.RightID, g.Dist, w.LeftID, w.RightID, w.Dist)
		}
	}
	return nil
}

// verifyTopK checks the k-distance join the workloads time and returns
// its answer.
func verifyTopK(ds dataset, left, right *distjoin.Index, k, queueMem int) ([]distjoin.Pair, error) {
	got, err := distjoin.KDistanceJoin(left, right, k, &distjoin.Options{QueueMemBytes: queueMem})
	if err != nil {
		return nil, fmt.Errorf("AM-KDJ k=%d: %w", k, err)
	}
	ref, err := distjoin.KDistanceJoin(left, right, k, &distjoin.Options{Algorithm: distjoin.BKDJ})
	if err != nil {
		return nil, fmt.Errorf("B-KDJ k=%d: %w", k, err)
	}
	if len(got) != k {
		return nil, fmt.Errorf("AM-KDJ k=%d returned %d pairs", k, len(got))
	}
	if err := samePairs(got, ref); err != nil {
		return nil, fmt.Errorf("AM-KDJ k=%d against B-KDJ: %w", k, err)
	}
	if err := checkPairs(ds, got); err != nil {
		return nil, fmt.Errorf("AM-KDJ k=%d: %w", k, err)
	}
	return got, nil
}

// verifyWithin collects the within-distance join the way the server
// does (stop at limit) and checks every pair on its own: the join
// streams in no particular order, so there is no ranked reference to
// compare with, but each pair must be real, within the bound, and
// reported once.
func verifyWithin(ds dataset, left, right *distjoin.Index, maxDist float64, limit int) ([]distjoin.Pair, error) {
	var pairs []distjoin.Pair
	err := distjoin.WithinJoin(left, right, maxDist, nil, func(p distjoin.Pair) bool {
		if len(pairs) >= limit {
			return false
		}
		pairs = append(pairs, p)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("within %g: %w", maxDist, err)
	}
	seen := make(map[[2]int64]bool, len(pairs))
	for _, p := range pairs {
		if err := checkPair(ds, p); err != nil {
			return nil, fmt.Errorf("within %g: %w", maxDist, err)
		}
		if p.Dist > maxDist {
			return nil, fmt.Errorf("within %g: pair (%d, %d) at distance %v", maxDist, p.LeftID, p.RightID, p.Dist)
		}
		key := [2]int64{p.LeftID, p.RightID}
		if seen[key] {
			return nil, fmt.Errorf("within %g: pair (%d, %d) reported twice", maxDist, p.LeftID, p.RightID)
		}
		seen[key] = true
	}
	return pairs, nil
}

// verifyIncremental pulls pages*page pairs from the incremental join
// and checks them against B-KDJ with that k, then cuts them into the
// pages a cursor returns.
func verifyIncremental(ds dataset, left, right *distjoin.Index, page, pages int) ([][]distjoin.Pair, error) {
	it, err := distjoin.IncrementalJoin(left, right, nil)
	if err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	defer it.Close()
	total := page * pages
	got := make([]distjoin.Pair, 0, total)
	for len(got) < total {
		p, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, p)
	}
	if err := it.Err(); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	if len(got) != total {
		return nil, fmt.Errorf("incremental: %d pairs, wanted %d", len(got), total)
	}
	ref, err := distjoin.KDistanceJoin(left, right, total, &distjoin.Options{Algorithm: distjoin.BKDJ})
	if err != nil {
		return nil, fmt.Errorf("B-KDJ k=%d: %w", total, err)
	}
	if err := samePairs(got, ref); err != nil {
		return nil, fmt.Errorf("incremental against B-KDJ k=%d: %w", total, err)
	}
	if err := checkPairs(ds, got); err != nil {
		return nil, fmt.Errorf("incremental: %w", err)
	}
	out := make([][]distjoin.Pair, pages)
	for i := range out {
		out[i] = got[i*page : (i+1)*page]
	}
	return out, nil
}
