// Analytics: the companion operations built on the same index —
// k-closest-pairs within one layer (collision/conflict detection),
// each customer's nearest warehouse (assignment), and the
// within-distance join (range association). A delivery scenario:
// warehouses, customers, and no-fly zones.
//
// Run with: go run ./examples/analytics [-customers 20000]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"distjoin"
)

func main() {
	nCustomers := flag.Int("customers", 20000, "number of customers")
	flag.Parse()
	rng := rand.New(rand.NewSource(2024))

	// 40 warehouses, clustered customers, a handful of no-fly zones.
	warehouses := make([]distjoin.Object, 40)
	for i := range warehouses {
		warehouses[i] = distjoin.Object{
			ID:   int64(i),
			Rect: distjoin.PointRect(rng.Float64()*100000, rng.Float64()*100000),
		}
	}
	customers := make([]distjoin.Object, *nCustomers)
	for i := range customers {
		w := warehouses[rng.Intn(len(warehouses))].Rect.Center()
		customers[i] = distjoin.Object{
			ID:   int64(i),
			Rect: distjoin.PointRect(w.X+rng.NormFloat64()*4000, w.Y+rng.NormFloat64()*4000),
		}
	}
	zones := make([]distjoin.Object, 25)
	for i := range zones {
		x, y := rng.Float64()*100000, rng.Float64()*100000
		zones[i] = distjoin.Object{
			ID:   int64(i),
			Rect: distjoin.NewRect(x, y, x+2000+rng.Float64()*3000, y+2000+rng.Float64()*3000),
		}
	}

	whIdx := must(distjoin.NewIndex(warehouses, nil))
	zoneIdx := must(distjoin.NewIndex(zones, nil))

	// 1. KClosestPairs: which warehouses are redundantly close to each
	// other? (self-join; each unordered pair reported once)
	pairs, err := distjoin.KClosestPairs(whIdx, 5, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("5 most redundant warehouse pairs:")
	for _, p := range pairs {
		fmt.Printf("  W%d <-> W%d at %.0f\n", p.LeftID, p.RightID, p.Dist)
	}

	// 2. Nearest: assign every customer to its closest warehouse.
	assignment := map[int64]int{}
	worst, worstWh, worstDist := int64(-1), int64(-1), -1.0
	for _, c := range customers {
		wh, dists, err := whIdx.Nearest(c.Rect, 1)
		if err != nil {
			log.Fatal(err)
		}
		assignment[wh[0].ID]++
		if dists[0] > worstDist {
			worst, worstDist, worstWh = c.ID, dists[0], wh[0].ID
		}
	}
	busiest, load := int64(-1), 0
	for w, n := range assignment {
		if n > load {
			busiest, load = w, n
		}
	}
	fmt.Printf("\nassigned %d customers; busiest warehouse W%d serves %d;\n", len(customers), busiest, load)
	fmt.Printf("worst-served customer C%d is %.0f from W%d\n", worst, worstDist, worstWh)

	// 3. WithinJoin: which warehouses sit within 1km of a no-fly zone?
	flagged := map[int64]bool{}
	if err := distjoin.WithinJoin(whIdx, zoneIdx, 1000, nil, func(p distjoin.Pair) bool {
		flagged[p.LeftID] = true
		return true
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d of %d warehouses are within 1km of a no-fly zone\n", len(flagged), len(warehouses))
}

func must(idx *distjoin.Index, err error) *distjoin.Index {
	if err != nil {
		log.Fatal(err)
	}
	return idx
}
