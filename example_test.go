package distjoin_test

import (
	"fmt"
	"log"
	"math"

	"distjoin"
)

// The paper's motivating query: the k closest hotel/restaurant pairs.
func ExampleKDistanceJoin() {
	hotels, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.PointRect(2, 3)},
		{ID: 1, Rect: distjoin.PointRect(40, 8)},
		{ID: 2, Rect: distjoin.PointRect(18, 22)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	restaurants, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.PointRect(3, 4)},
		{ID: 1, Rect: distjoin.PointRect(41, 10)},
		{ID: 2, Rect: distjoin.PointRect(20, 20)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	pairs, err := distjoin.KDistanceJoin(hotels, restaurants, 2, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		fmt.Printf("hotel %d - restaurant %d: %.2f\n", p.LeftID, p.RightID, p.Dist)
	}
	// Output:
	// hotel 0 - restaurant 0: 1.41
	// hotel 1 - restaurant 1: 2.24
}

// Incremental joins need no stopping cardinality: pull pairs until
// satisfied.
func ExampleIncrementalJoin() {
	left, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.PointRect(0, 0)},
		{ID: 1, Rect: distjoin.PointRect(10, 0)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	right, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.PointRect(1, 0)},
		{ID: 1, Rect: distjoin.PointRect(5, 0)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	it, err := distjoin.IncrementalJoin(left, right, nil)
	if err != nil {
		log.Fatal(err)
	}
	for {
		p, ok := it.Next()
		if !ok || p.Dist > 6 { // "enough already"
			break
		}
		fmt.Printf("%d-%d at %.0f\n", p.LeftID, p.RightID, p.Dist)
	}
	// Output:
	// 0-0 at 1
	// 0-1 at 5
	// 1-1 at 5
}

// Exact-geometry ranking via a refiner: MBR distances act as lower
// bounds, and each candidate is refined once at the queue head.
func ExampleOptions_refiner() {
	// Two "disk" objects, indexed by their bounding boxes.
	left, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.NewRect(0, 0, 2, 2)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	right, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.NewRect(4, 0, 6, 2)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Exact distance: between the inscribed circles of the boxes.
	refiner := func(a, b distjoin.Object) float64 {
		ca, cb := a.Rect.Center(), b.Rect.Center()
		centerDist := math.Hypot(ca.X-cb.X, ca.Y-cb.Y)
		return centerDist - a.Rect.Side(0)/2 - b.Rect.Side(0)/2
	}
	pairs, err := distjoin.KDistanceJoin(left, right, 1, &distjoin.Options{Refiner: refiner})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.0f\n", pairs[0].Dist)
	// Output:
	// 2
}

// Builder accumulates objects over time; Snapshot freezes them for
// queries.
func ExampleBuilder() {
	b, err := distjoin.NewBuilder(nil)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := b.Insert(distjoin.Object{
			ID:   int64(i),
			Rect: distjoin.PointRect(float64(i*10), 0),
		}); err != nil {
			log.Fatal(err)
		}
	}
	b.Delete(distjoin.Object{ID: 2, Rect: distjoin.PointRect(20, 0)})

	idx, err := b.Snapshot(nil)
	if err != nil {
		log.Fatal(err)
	}
	pairs, err := distjoin.KClosestPairs(idx, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closest pair: %d-%d at %.0f\n", pairs[0].LeftID, pairs[0].RightID, pairs[0].Dist)
	// Output:
	// closest pair: 0-1 at 10
}

// Nearest returns the k objects nearest to a query rectangle, here each
// store's two nearest depots.
func ExampleIndex_Nearest() {
	stores := []distjoin.Object{
		{ID: 0, Rect: distjoin.PointRect(0, 0)},
		{ID: 1, Rect: distjoin.PointRect(100, 0)},
	}
	depots, err := distjoin.NewIndex([]distjoin.Object{
		{ID: 0, Rect: distjoin.PointRect(3, 4)},
		{ID: 1, Rect: distjoin.PointRect(90, 0)},
		{ID: 2, Rect: distjoin.PointRect(200, 0)},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range stores {
		ds, dists, err := depots.Nearest(s.Rect, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("store %d: depot %d (%.0f), depot %d (%.0f)\n",
			s.ID, ds[0].ID, dists[0], ds[1].ID, dists[1])
	}
	// Output:
	// store 0: depot 0 (5), depot 1 (90)
	// store 1: depot 1 (10), depot 0 (97)
}
