// Package memotest lets tests look into a tree's sweep-order memo the
// only way a query can — by reading nodes through it — so the tests of
// the shared decoded nodes (internal/join, internal/simtest and the
// facade's concurrency tests) enumerate and fingerprint them with one
// helper instead of a copy each.
package memotest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"distjoin/internal/rtree"
	"distjoin/internal/storage"
)

// Cell names one cell of a tree's sweep-order memo.
type Cell struct {
	ID   storage.PageID
	Slot int
}

// Shared is one finished node the memo hands out, with the digest of
// everything a sweep can read of it at the moment it was enumerated.
type Shared struct {
	Node   *rtree.NodeSoA
	Digest uint64
}

// Survey is what reading every cell of a tree's memo found: the cells
// answered with the tree's own finished node, and how many were
// answered in order through a memoized permutation instead.
type Survey struct {
	Nodes map[Cell]Shared
	Perms int
}

// Read reads every memo cell of every node of tr the way an expansion
// does: each read pins the page with the level Walk found it at (pool
// fetch included, accounted to no collector), takes the node in the
// slot's order and releases the page.
func Read(t testing.TB, tr *rtree.Tree) Survey {
	t.Helper()
	s := Survey{Nodes: map[Cell]Shared{}}
	var scratch rtree.NodeSoA
	err := tr.Walk(func(id storage.PageID, walked *rtree.NodeSoA) error {
		for slot := 0; slot < rtree.SweepSlots; slot++ {
			pin, err := tr.PinNode(id, walked.Level, nil)
			if err != nil {
				return err
			}
			n, ordered, err := pin.Ordered(slot, &scratch)
			pin.Release()
			switch {
			case err != nil:
				return err
			case n != &scratch:
				s.Nodes[Cell{id, slot}] = Shared{n, Digest(n)}
			case ordered && n.Len() > 1:
				s.Perms++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Unchanged fails the test unless every node of before is still the
// node its cell holds in after, with not one bit of it different.
func Unchanged(t testing.TB, what string, before, after Survey) {
	t.Helper()
	for cell, was := range before.Nodes {
		switch now := after.Nodes[cell]; {
		case now.Node != was.Node:
			t.Fatalf("%s: page %d slot %d holds another node than before", what, cell.ID, cell.Slot)
		case now.Digest != was.Digest:
			t.Fatalf("%s: the shared node of page %d slot %d was written", what, cell.ID, cell.Slot)
		}
	}
}

// Digest hashes everything a sweep can read of n: level, length, the
// four coordinate columns bit for bit, and the refs.
func Digest(n *rtree.NodeSoA) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(n.Level))
	put(uint64(n.Len()))
	for _, col := range [][]float64{n.MinX, n.MinY, n.MaxX, n.MaxY} {
		for _, v := range col {
			put(math.Float64bits(v))
		}
	}
	for _, r := range n.Refs {
		put(r)
	}
	return h.Sum64()
}
