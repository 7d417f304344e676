package simtest

import (
	"fmt"
	"math"

	"distjoin/internal/geom"
	"distjoin/internal/join"
	"distjoin/internal/obsrv"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// Check runs the full logic battery for one scenario: the differential
// oracle across every algorithm, then the metamorphic invariants. It
// returns nil or the first *Failure found. Check performs no fault
// injection — that is ExploreFaults.
func Check(s Scenario) error {
	e, err := newEnv(s, storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize), nil)
	if err != nil {
		return failf(s, nil, "setup", "building environment: %v", err)
	}
	reg := obsrv.NewRegistry()

	// Differential: every algorithm must reproduce the brute-force
	// reference exactly — the paper's §4.1 equivalence claim.
	for _, name := range Algorithms {
		got, err := e.runAlgo(name, e.options(nil, nil, reg), len(e.ref))
		if err != nil {
			return failf(s, nil, "differential/"+name, "unexpected error: %v", err)
		}
		if err := e.compareExact("differential", name, got); err != nil {
			return err
		}
	}

	if err := checkKPrefix(e, reg); err != nil {
		return err
	}
	if err := checkWithinSuperset(e, reg); err != nil {
		return err
	}
	if err := checkIncrementalMonotone(e, reg); err != nil {
		return err
	}
	if err := checkTranslation(e, reg); err != nil {
		return err
	}
	if err := checkScale(e, reg); err != nil {
		return err
	}
	if err := checkWarmRerun(e, "warm-rerun", reg); err != nil {
		return err
	}

	// Every query begun against the registry must have ended — an
	// in-flight leftover means some path skipped endQuery.
	if n := reg.InFlight(); n != 0 {
		return failf(s, nil, "registry", "%d queries still in flight after all runs", n)
	}
	return nil
}

// checkKPrefix asserts k-prefix monotonicity: the k/2 closest pairs
// are exactly the first k/2 of the k closest pairs. Under the
// canonical tie-break the top-k set is a pure function of the data, so
// this must hold exactly, not just set-wise.
func checkKPrefix(e *env, reg *obsrv.Registry) error {
	k2 := (e.s.K + 1) / 2
	if k2 == e.s.K {
		return nil
	}
	got, err := join.AMKDJ(e.lt, e.rt, k2, e.options(nil, nil, reg))
	if err != nil {
		return failf(e.s, nil, "k-prefix", "AM-KDJ k=%d unexpected error: %v", k2, err)
	}
	want := e.ref
	if len(want) > k2 {
		want = want[:k2]
	}
	return e.compareExactTo("k-prefix", fmt.Sprintf("AM-KDJ(k=%d)", k2), got, want)
}

// checkWithinSuperset asserts WithinJoin(Dmax_k) ⊇ top-k: the within
// join at the true k-th distance must stream every reference pair (and
// nothing farther than the threshold).
func checkWithinSuperset(e *env, reg *obsrv.Registry) error {
	if len(e.ref) == 0 {
		return nil
	}
	type pairID struct{ l, r int64 }
	seen := make(map[pairID]bool)
	var tooFar *join.Result
	err := join.WithinJoin(e.lt, e.rt, e.kth, e.options(nil, nil, reg), func(r join.Result) bool {
		seen[pairID{r.LeftObj, r.RightObj}] = true
		if r.Dist > e.kth && tooFar == nil {
			cp := r
			tooFar = &cp
			return false
		}
		return true
	})
	if err != nil {
		return failf(e.s, nil, "within-superset", "WithinJoin unexpected error: %v", err)
	}
	if tooFar != nil {
		return failf(e.s, nil, "within-superset", "WithinJoin(%.17g) produced pair (%d,%d) at dist %.17g beyond the threshold",
			e.kth, tooFar.LeftObj, tooFar.RightObj, tooFar.Dist)
	}
	for _, w := range e.ref {
		if !seen[pairID{w.LeftObj, w.RightObj}] {
			return failf(e.s, nil, "within-superset", "WithinJoin(%.17g) missed reference pair (%d,%d) at dist %.17g",
				e.kth, w.LeftObj, w.RightObj, w.Dist)
		}
	}
	return nil
}

// checkIncrementalMonotone pulls AM-IDJ past the reference length and
// asserts the stream stays sorted: the first len(ref) results are the
// reference exactly, and every further result is no closer than Dmax_k.
func checkIncrementalMonotone(e *env, reg *obsrv.Registry) error {
	it, err := join.AMIDJ(e.lt, e.rt, e.options(nil, nil, reg))
	if err != nil {
		return failf(e.s, nil, "idj-monotone", "AM-IDJ unexpected error: %v", err)
	}
	defer func() { it.Close(); it.Close() }()
	got, err := drainIter(it, len(e.ref)+3)
	if err != nil {
		return failf(e.s, nil, "idj-monotone", "AM-IDJ unexpected error: %v", err)
	}
	n := len(e.ref)
	if len(got) < n {
		return failf(e.s, nil, "idj-monotone", "AM-IDJ produced %d results, oracle has %d", len(got), n)
	}
	if err := e.compareExactTo("idj-monotone", "AM-IDJ", got[:n], e.ref); err != nil {
		return err
	}
	prev := e.kth
	for i := n; i < len(got); i++ {
		if got[i].Dist < prev {
			return failf(e.s, nil, "idj-monotone", "AM-IDJ result %d dist %.17g < previous %.17g (stream not sorted)",
				i, got[i].Dist, prev)
		}
		//lint:allow floatcmp oracle cross-check: the harness recomputes the same pure distance, so bit-equality is the invariant under test
		if d := e.pairDist(got[i].LeftRect, got[i].RightRect); d != got[i].Dist {
			return failf(e.s, nil, "idj-monotone", "AM-IDJ result %d dist %.17g inconsistent with its rects (%.17g)",
				i, got[i].Dist, d)
		}
		prev = got[i].Dist
	}
	return nil
}

// transformItems returns a deep copy of items with f applied to every
// rect.
func transformItems(items []rtree.Item, f func(geom.Rect) geom.Rect) []rtree.Item {
	out := make([]rtree.Item, len(items))
	for i, it := range items {
		out[i] = rtree.Item{Obj: it.Obj, Rect: f(it.Rect)}
	}
	return out
}

// checkTranslation asserts translation invariance: shifting every
// rectangle by the same offset must leave the result distances
// unchanged up to floating-point tolerance. Pair identities are NOT
// compared — a translation can legitimately flip which of two
// almost-tied pairs lands on the k boundary — so the check is over the
// sorted distance multiset only.
func checkTranslation(e *env, reg *obsrv.Registry) error {
	s := e.s
	tx, ty := s.WorldSide+123.456, -0.5*s.WorldSide-7.875
	shift := func(r geom.Rect) geom.Rect {
		return geom.NewRect(r.MinX+tx, r.MinY+ty, r.MaxX+tx, r.MaxY+ty)
	}
	te, err := newEnvItems(s,
		transformItems(e.left, shift), transformItems(e.right, shift),
		storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize),
		e.ref) // reuse the reference so kth (≈ translation-invariant) drives the EDmax overrides
	if err != nil {
		return failf(s, nil, "translation", "building translated environment: %v", err)
	}
	got, err := te.runAlgo("AM-KDJ", te.options(nil, nil, reg), len(e.ref))
	if err != nil {
		return failf(s, nil, "translation", "AM-KDJ unexpected error: %v", err)
	}
	if len(got) != len(e.ref) {
		return failf(s, nil, "translation", "AM-KDJ returned %d results on translated data, oracle has %d", len(got), len(e.ref))
	}
	for i := range got {
		want := e.ref[i].Dist
		tol := 1e-9 * (s.WorldSide + want + math.Abs(tx) + math.Abs(ty))
		if math.Abs(got[i].Dist-want) > tol {
			return failf(s, nil, "translation", "result %d dist %.17g on translated data, %.17g on original (tol %.3g)",
				i, got[i].Dist, want, tol)
		}
	}
	return checkWarmRerun(te, "translation/warm-rerun", reg)
}

// checkScale asserts power-of-two scale equivariance: multiplying
// every coordinate by 4 multiplies every result distance by exactly 4
// (scaling by a power of two commutes with IEEE rounding through the
// squares and the square root), with identical pair identities.
func checkScale(e *env, reg *obsrv.Registry) error {
	const f = 4.0
	s := e.s
	scale := func(r geom.Rect) geom.Rect {
		return geom.NewRect(r.MinX*f, r.MinY*f, r.MaxX*f, r.MaxY*f)
	}
	ref := make([]join.Result, len(e.ref))
	for i, w := range e.ref {
		ref[i] = join.Result{
			LeftObj: w.LeftObj, RightObj: w.RightObj,
			LeftRect: scale(w.LeftRect), RightRect: scale(w.RightRect),
			Dist: w.Dist * f,
		}
	}
	se, err := newEnvItems(s,
		transformItems(e.left, scale), transformItems(e.right, scale),
		storage.NewMemStore(s.PageSize), storage.NewMemStore(s.PageSize), ref)
	if err != nil {
		return failf(s, nil, "scale", "building scaled environment: %v", err)
	}
	got, err := se.runAlgo("AM-KDJ", se.options(nil, nil, reg), len(ref))
	if err != nil {
		return failf(s, nil, "scale", "AM-KDJ unexpected error: %v", err)
	}
	if err := se.compareExact("scale", "AM-KDJ(x4)", got); err != nil {
		return err
	}
	return checkWarmRerun(se, "scale/warm-rerun", reg)
}

// checkWarmRerun asserts that the trees' sweep-order memo is invisible.
// e's trees have served earlier checks, so their memo is (partly)
// filled and a query on them decodes nodes straight into sweep order;
// a freshly packed copy has an empty memo and sorts every node it
// touches. Run from cold buffer pools, the two must return the
// same pairs in the same order with the same deterministic counters,
// and so must a rerun on the copy once the first run has filled it.
func checkWarmRerun(e *env, check string, reg *obsrv.Registry) error {
	for _, name := range []string{"B-KDJ", "AM-KDJ", "AM-IDJ"} {
		fresh, err := newEnvItems(e.s, e.left, e.right,
			storage.NewMemStore(e.s.PageSize), storage.NewMemStore(e.s.PageSize), e.ref)
		if err != nil {
			return failf(e.s, nil, check, "building fresh environment: %v", err)
		}
		cold, coldC, err := fresh.runCounted(name, reg)
		if err != nil {
			return failf(e.s, nil, check, "%s on a fresh index: unexpected error: %v", name, err)
		}
		for _, warm := range []struct {
			what string
			e    *env
		}{{"used index", e}, {"fresh index, second run", fresh}} {
			got, gotC, err := warm.e.runCounted(name, reg)
			if err != nil {
				return failf(e.s, nil, check, "%s on the %s: unexpected error: %v", name, warm.what, err)
			}
			if err := e.compareExactTo(check, name+" ("+warm.what+")", got, cold); err != nil {
				return err
			}
			if gotC != coldC {
				return failf(e.s, nil, check, "%s counters on the %s differ from a fresh index's:\n got  %+v\n want %+v",
					name, warm.what, gotC, coldC)
			}
		}
	}
	return nil
}
