package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/rtree"
)

// dataset is the one input all workloads share.
type dataset struct {
	streets, hydro []rtree.Item
}

func generate(seed int64) dataset {
	rng := rand.New(rand.NewSource(seed))
	return dataset{
		streets: sample(rng, datagen.TigerStreets(worldSeed, streetsN+streetsN/sampleSlack), streetsN),
		hydro:   sample(rng, datagen.TigerHydro(worldSeed+1, hydroN+hydroN/sampleSlack), hydroN),
	}
}

// sample keeps n of the items, chosen by rng, in their original order,
// and renumbers them 0..n-1 so an object ID indexes the slice.
func sample(rng *rand.Rand, items []rtree.Item, n int) []rtree.Item {
	drop := make([]bool, len(items))
	for _, i := range rng.Perm(len(items))[:len(items)-n] {
		drop[i] = true
	}
	out := make([]rtree.Item, 0, n)
	for i, it := range items {
		if !drop[i] {
			it.Obj = int64(len(out))
			out = append(out, it)
		}
	}
	return out
}

func objects(items []rtree.Item) []distjoin.Object {
	objs := make([]distjoin.Object, len(items))
	for i, it := range items {
		objs[i] = distjoin.Object{ID: it.Obj, Rect: it.Rect}
	}
	return objs
}

// digest folds values into an FNV-64a hash without allocating.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) sum() uint64 { return d.h.Sum64() }

// digest identifies the generated inputs: same seed, same digest.
func (ds dataset) digest() uint64 {
	d := newDigest()
	for _, items := range [][]rtree.Item{ds.streets, ds.hydro} {
		for _, it := range items {
			d.u64(uint64(it.Obj))
			d.f64(it.Rect.MinX)
			d.f64(it.Rect.MinY)
			d.f64(it.Rect.MaxX)
			d.f64(it.Rect.MaxY)
		}
	}
	return d.sum()
}

// pairsDigest is the recorded answer of one query: (left, right, dist
// bits) of every pair, in order.
func pairsDigest(pairs []distjoin.Pair) uint64 {
	d := newDigest()
	for i := range pairs {
		d.u64(uint64(pairs[i].LeftID))
		d.u64(uint64(pairs[i].RightID))
		d.f64(pairs[i].Dist)
	}
	return d.sum()
}

// scheduleBlock is the length of one block of the schedule.
const scheduleBlock = 10

// schedule decides which op of the mix each arrival runs. It is a
// sequence of blocks of ten arrivals; every block holds each op in
// exactly its share (shares are tenths) in an order the seed shuffles.
// Independent draws would let the realised share of an expensive op
// drift by a few percent from run to run, and the mean cost of an op
// with it. The schedule depends on the seed and the mix only, so a run
// can be replayed.
func schedule(seed int64, ops []serveOp, n int) []uint8 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0f09))
	var block []uint8
	for i, op := range ops {
		for j := 0; j < int(op.Share*scheduleBlock+0.5); j++ {
			block = append(block, uint8(i))
		}
	}
	out := make([]uint8, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}
