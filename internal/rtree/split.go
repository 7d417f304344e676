package rtree

import (
	"fmt"
	"math"

	"distjoin/internal/geom"
)

// SplitPolicy selects the node-split algorithm used on overflow.
// The paper's experiments use R*-trees; the classic Guttman policies
// are provided to study how index quality feeds join cost (ablation
// "ablation-split" in the experiment harness).
type SplitPolicy int

const (
	// SplitRStar is the R*-tree topological split with forced
	// reinsertion (the default, and the paper's setting).
	SplitRStar SplitPolicy = iota
	// SplitQuadratic is Guttman's quadratic split (no reinsertion).
	SplitQuadratic
	// SplitLinear is Guttman's linear split (no reinsertion).
	SplitLinear
)

// String implements fmt.Stringer.
func (p SplitPolicy) String() string {
	switch p {
	case SplitRStar:
		return "rstar"
	case SplitQuadratic:
		return "quadratic"
	case SplitLinear:
		return "linear"
	default:
		return fmt.Sprintf("SplitPolicy(%d)", int(p))
	}
}

// SetSplitPolicy selects the split algorithm for subsequent Inserts.
// Forced reinsertion is an R*-specific mechanism and is disabled under
// the Guttman policies.
func (b *Builder) SetSplitPolicy(p SplitPolicy) { b.splitPolicy = p }

// SplitPolicy returns the current split policy.
func (b *Builder) SplitPolicy() SplitPolicy { return b.splitPolicy }

// splitNodeQuadratic implements Guttman's quadratic split: pick the
// two entries wasting the most area as seeds, then assign each
// remaining entry to the group whose covering rectangle it enlarges
// least, most-constrained entries first.
//
//lint:allow floatcmp Guttman tie-break on bit-equal enlargements/areas; a missed tie only changes tree shape, never correctness
func (b *Builder) splitNodeQuadratic(n *node) *node {
	entries := n.entries
	s1, s2 := quadraticSeeds(entries)
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	r1 := entries[s1].rect
	r2 := entries[s2].rect
	rest := make([]entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}

	for len(rest) > 0 {
		// Min-fill guarantee: if one group must absorb everything left.
		if len(g1)+len(rest) == b.minEntries {
			g1 = append(g1, rest...)
			break
		}
		if len(g2)+len(rest) == b.minEntries {
			g2 = append(g2, rest...)
			break
		}
		// Pick the entry with the greatest preference between groups.
		// The first candidate stands until one compares better: with
		// infinite coordinates every enlargement may be +Inf or NaN, and
		// then every difference is NaN, which compares above nothing.
		best, bestDiff := -1, -1.0
		for i, e := range rest {
			d1 := r1.Enlargement(e.rect)
			d2 := r2.Enlargement(e.rect)
			if diff := math.Abs(d1 - d2); best < 0 || diff > bestDiff {
				best, bestDiff = i, diff
			}
		}
		e := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		d1 := r1.Enlargement(e.rect)
		d2 := r2.Enlargement(e.rect)
		// Ties: smaller area, then fewer entries.
		toFirst := d1 < d2 ||
			(d1 == d2 && (r1.Area() < r2.Area() ||
				(r1.Area() == r2.Area() && len(g1) <= len(g2))))
		if toFirst {
			g1 = append(g1, e)
			r1 = r1.Union(e.rect)
		} else {
			g2 = append(g2, e)
			r2 = r2.Union(e.rect)
		}
	}
	n.entries = g1
	return &node{level: n.level, entries: g2}
}

// quadraticSeeds returns the indexes of the entry pair wasting the
// most area when covered together.
func quadraticSeeds(entries []entry) (int, int) {
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			waste := entries[i].rect.Union(entries[j].rect).Area() -
				entries[i].rect.Area() - entries[j].rect.Area()
			if waste > worst {
				s1, s2, worst = i, j, waste
			}
		}
	}
	return s1, s2
}

// splitNodeLinear implements Guttman's linear split: seeds are the
// pair with the greatest normalized separation along any dimension;
// remaining entries are assigned by least enlargement.
func (b *Builder) splitNodeLinear(n *node) *node {
	entries := n.entries
	s1, s2 := linearSeeds(entries)
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	r1 := entries[s1].rect
	r2 := entries[s2].rect
	for i, e := range entries {
		if i == s1 || i == s2 {
			continue
		}
		remaining := len(entries) - i // upper bound on what's left including e
		switch {
		case len(g1)+remaining <= b.minEntries:
			g1 = append(g1, e)
			r1 = r1.Union(e.rect)
			continue
		case len(g2)+remaining <= b.minEntries:
			g2 = append(g2, e)
			r2 = r2.Union(e.rect)
			continue
		}
		if r1.Enlargement(e.rect) <= r2.Enlargement(e.rect) {
			g1 = append(g1, e)
			r1 = r1.Union(e.rect)
		} else {
			g2 = append(g2, e)
			r2 = r2.Union(e.rect)
		}
	}
	// Post-fix the minimum fill (the greedy pass can starve a group).
	for len(g1) < b.minEntries && len(g2) > b.minEntries {
		g1 = append(g1, g2[len(g2)-1])
		g2 = g2[:len(g2)-1]
	}
	for len(g2) < b.minEntries && len(g1) > b.minEntries {
		g2 = append(g2, g1[len(g1)-1])
		g1 = g1[:len(g1)-1]
	}
	n.entries = g1
	return &node{level: n.level, entries: g2}
}

// linearSeeds returns the pair with the greatest separation normalized
// by the spread, over both dimensions.
func linearSeeds(entries []entry) (int, int) {
	bestAxis, bestNorm := 0, -1.0
	var bestLo, bestHi int
	for axis := 0; axis < geom.Dims; axis++ {
		// Entry with the highest low side and the lowest high side.
		hiLow, loHigh := 0, 0
		minLo, maxHi := math.Inf(1), math.Inf(-1)
		for i, e := range entries {
			if e.rect.Min(axis) > entries[hiLow].rect.Min(axis) {
				hiLow = i
			}
			if e.rect.Max(axis) < entries[loHigh].rect.Max(axis) {
				loHigh = i
			}
			minLo = math.Min(minLo, e.rect.Min(axis))
			maxHi = math.Max(maxHi, e.rect.Max(axis))
		}
		spread := maxHi - minLo
		if spread <= 0 {
			continue
		}
		sep := (entries[hiLow].rect.Min(axis) - entries[loHigh].rect.Max(axis)) / spread
		if sep > bestNorm {
			bestAxis, bestNorm = axis, sep
			bestLo, bestHi = loHigh, hiLow
		}
	}
	_ = bestAxis
	if bestLo == bestHi {
		// Degenerate (identical rects): any distinct pair works.
		if bestLo == 0 {
			return 0, 1
		}
		return 0, bestLo
	}
	return bestLo, bestHi
}
