package join

import (
	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
)

// HS-KDJ and HS-IDJ: Hjaltason & Samet's incremental distance join
// (SIGMOD '98), the baseline of the paper's §5. Node expansion is
// uni-directional: when a pair <r, s> is dequeued, only one side is
// expanded and each of its children is paired with the *other side
// intact*, so no plane sweeping applies and every child pairing costs
// a real distance computation. The k-bounded variant prunes with a
// distance queue that, following [13], receives the maximum distance
// of every generated pair (not just object pairs).

// HSKDJ runs the baseline k-distance join and returns the k nearest
// pairs in nondecreasing distance order.
func HSKDJ(left, right *rtree.Tree, k int, opts Options) (results []Result, err error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	if k <= 0 || c.left.Size() == 0 || c.right.Size() == 0 {
		return nil, nil
	}
	defer c.begin("HS-KDJ", "expand", k)(&err)

	// HS-KDJ prunes with the all-pairs distance queue of [13]: every
	// enqueued pair contributes an upper bound, retired on expansion.
	ct := newCutoffTracker(c, k, true)
	loop := bestFirst{c: c, ct: ct, node: func(p *hybridq.Pair) error { return c.hsExpand(p, ct) }}
	ct.pushCopy(c.rootPair())
	return loop.collect(make([]Result, 0, k), k)
}

// hsExpand performs one uni-directional expansion: the non-object side
// (or, with two nodes, the higher-level side, ties to the left) is
// expanded and each child is paired with the other side intact. The
// expanded side is always a node (hsPickSide): it is pinned and decoded
// in page order, which checks it (rtree.PinNode, PinnedNode.Decode),
// into the expander's reusable SoA buffer, and each child's distance to
// the fixed other side is the batch kernel's (geom.MinDistBatch with
// that side as the fixed rectangle):
// geom.Rect.MinDist does the same IEEE operations in the same order.
// Under Ablation.BatchTail the last child takes its predecessor's
// distance, as a kernel that handles the tail one element short would.
// ct is nil for HS-IDJ, which has no k to prune by.
func (c *execContext) hsExpand(p *hybridq.Pair, ct *cutoffTracker) error {
	if ct != nil {
		ct.OnRemove(p)
	}
	expandLeft := c.hsPickSide(p)
	tree, ref, otherRect := c.left, p.Left, p.RightRect
	if !expandLeft {
		tree, ref, otherRect = c.right, p.Right, p.LeftRect
	}
	ex := &c.ex
	soa := &ex.soaL
	pin, err := tree.PinNode(refPage(ref), refLevel(ref), ex.mc)
	if err != nil {
		return c.traceError(err)
	}
	err = pin.Decode(soa)
	pin.Release()
	if err != nil {
		return c.traceError(err)
	}
	stampChildLevels(soa)
	childIsObj := soa.IsLeaf()
	n := soa.Len()
	ex.mc.AddRealDist(int64(n))
	var children int64
	var d float64
	for i := 0; i < n; i++ {
		childRef, childRect := soa.Refs[i], soa.Rect(i)
		if !(ex.batchTail && i > 0 && i == n-1) {
			d = otherRect.MinDist(childRect)
		}
		var np hybridq.Pair
		if expandLeft {
			np = hybridq.Pair{
				LeftObj: childIsObj, RightObj: p.RightObj,
				Left: childRef, Right: p.Right,
				LeftRect: childRect, RightRect: p.RightRect,
			}
		} else {
			np = hybridq.Pair{
				LeftObj: p.LeftObj, RightObj: childIsObj,
				Left: p.Left, Right: childRef,
				LeftRect: p.LeftRect, RightRect: childRect,
			}
		}
		np.Dist = d
		if ct != nil && np.Dist > ct.Cutoff() {
			continue
		}
		if c.pushCopy(np) {
			if ct != nil {
				ct.OnPush(&np)
			}
			children++
		}
	}
	cutoff := 0.0
	if ct != nil {
		cutoff = ct.Cutoff()
	}
	c.traceExpansion(p, cutoff, children)
	return nil
}

// hsPickSide chooses the side to expand: an object side is never
// expanded; between two nodes the higher-level one is expanded so the
// traversal stays balanced (ties expand the left).
func (c *execContext) hsPickSide(p *hybridq.Pair) (expandLeft bool) {
	switch {
	case p.LeftObj:
		return false
	case p.RightObj:
		return true
	default:
		return refLevel(p.Left) >= refLevel(p.Right)
	}
}

// HSIDJ starts the baseline incremental distance join; results are
// pulled with Next.
func HSIDJ(left, right *rtree.Tree, opts Options) (*Iterator, error) {
	c, err := newContext(left, right, opts)
	if err != nil {
		return nil, err
	}
	c.algo, c.stage = "HS-IDJ", "expand"
	c.beginQuery(0)
	it := &Iterator{bestFirst: bestFirst{c: c, node: func(p *hybridq.Pair) error { return c.hsExpand(p, nil) }}}
	if c.left.Size() == 0 || c.right.Size() == 0 {
		it.Close()
		return it, nil
	}
	c.pushCopy(c.rootPair())
	return it, nil
}
