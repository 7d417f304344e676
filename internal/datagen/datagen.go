// Package datagen produces the deterministic synthetic data sets used
// by the experiments. The paper evaluates on TIGER/Line97 Arizona data
// (633,461 street segments joined with 189,642 hydrographic objects);
// those files are not redistributable here, so TigerStreets and
// TigerHydro generate a structurally similar substitute: street
// segments laid down by road-network random walks with dense urban
// clusters, and hydrography built from meandering river courses plus
// lake clusters. Uniform and Gaussian-cluster generators are provided
// for sensitivity experiments. All generators are seeded and
// reproducible.
package datagen

import (
	"math"
	"math/rand"

	"distjoin/internal/geom"
	"distjoin/internal/rtree"
)

// World is the coordinate universe all generators target. Using one
// shared universe keeps the two join sides overlapping, as the paper's
// Arizona data is. The extent is chosen so a typical street segment
// (~100-200 units) relates to the map like a 100 m street segment
// relates to Arizona — which also keeps the count of MBR-overlapping
// street/hydro pairs realistically small, so the k-th pair distance is
// positive even at the paper's largest k.
var World = geom.NewRect(0, 0, 1_000_000, 1_000_000)

// Uniform returns n items with centers uniform in bounds and sides
// uniform in [0, maxSide]. Object IDs are 0..n-1.
func Uniform(seed int64, n int, bounds geom.Rect, maxSide float64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, n)
	for i := range items {
		cx := bounds.MinX + rng.Float64()*bounds.Side(0)
		cy := bounds.MinY + rng.Float64()*bounds.Side(1)
		w := rng.Float64() * maxSide / 2
		h := rng.Float64() * maxSide / 2
		items[i] = rtree.Item{
			Rect: clampRect(geom.NewRect(cx-w, cy-h, cx+w, cy+h), bounds),
			Obj:  int64(i),
		}
	}
	return items
}

// GaussianClusters returns n items drawn from numClusters Gaussian
// blobs with the given standard deviation, a classic skewed workload.
func GaussianClusters(seed int64, n, numClusters int, bounds geom.Rect, stddev, maxSide float64) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	type cluster struct{ x, y float64 }
	centers := make([]cluster, numClusters)
	for i := range centers {
		centers[i] = cluster{
			x: bounds.MinX + rng.Float64()*bounds.Side(0),
			y: bounds.MinY + rng.Float64()*bounds.Side(1),
		}
	}
	items := make([]rtree.Item, n)
	for i := range items {
		c := centers[rng.Intn(numClusters)]
		cx := c.x + rng.NormFloat64()*stddev
		cy := c.y + rng.NormFloat64()*stddev
		w := rng.Float64() * maxSide / 2
		h := rng.Float64() * maxSide / 2
		items[i] = rtree.Item{
			Rect: clampRect(geom.NewRect(cx-w, cy-h, cx+w, cy+h), bounds),
			Obj:  int64(i),
		}
	}
	return items
}

// TigerStreets generates n street-segment MBRs. Streets are laid down
// by biased random walks ("roads") radiating from a handful of urban
// centers, yielding the heavy clustering and thin elongated MBRs of
// real street data: dense short segments downtown, long sparse
// segments between towns.
func TigerStreets(seed int64, n int) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	towns := placeTowns(rng, 40)
	items := make([]rtree.Item, 0, n)
	obj := int64(0)
	for len(items) < n {
		// Pick a town; roads start near it. A town's density governs
		// segment lengths: downtown segments are ~50-200 units, rural
		// connectors up to ~2000.
		t := towns[rng.Intn(len(towns))]
		x := t.x + rng.NormFloat64()*t.spread
		y := t.y + rng.NormFloat64()*t.spread
		heading := rng.Float64() * 2 * math.Pi
		segments := 5 + rng.Intn(40)
		urban := rng.Float64() < 0.8
		for s := 0; s < segments && len(items) < n; s++ {
			length := 50 + rng.Float64()*150
			if !urban {
				length = 300 + rng.Float64()*1700
			}
			// Manhattan-ish grid downtown: snap heading to axes often.
			if urban && rng.Float64() < 0.7 {
				heading = math.Round(heading/(math.Pi/2)) * (math.Pi / 2)
			}
			nx := x + math.Cos(heading)*length
			ny := y + math.Sin(heading)*length
			r := clampRect(geom.NewRect(x, y, nx, ny), World)
			items = append(items, rtree.Item{Rect: r, Obj: obj})
			obj++
			x, y = nx, ny
			heading += rng.NormFloat64() * 0.3
			if !World.ContainsPoint(geom.Point{X: x, Y: y}) {
				break // road ran off the map; start a new one
			}
		}
	}
	return items[:n]
}

// TigerHydro generates n hydrographic MBRs: meandering river courses
// (chains of overlapping segment MBRs) and clustered lakes/ponds.
func TigerHydro(seed int64, n int) []rtree.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]rtree.Item, 0, n)
	obj := int64(0)
	// ~70% river segments, ~30% lakes.
	for len(items) < n {
		if rng.Float64() < 0.7 {
			// A river: long meandering walk with wide-ish MBRs.
			x := World.MinX + rng.Float64()*World.Side(0)
			y := World.MinY + rng.Float64()*World.Side(1)
			heading := rng.Float64() * 2 * math.Pi
			course := 20 + rng.Intn(120)
			for s := 0; s < course && len(items) < n; s++ {
				length := 200 + rng.Float64()*600
				nx := x + math.Cos(heading)*length
				ny := y + math.Sin(heading)*length
				width := 20 + rng.Float64()*80
				r := clampRect(inflate(geom.NewRect(x, y, nx, ny), width), World)
				items = append(items, rtree.Item{Rect: r, Obj: obj})
				obj++
				x, y = nx, ny
				heading += rng.NormFloat64() * 0.25
				if !World.ContainsPoint(geom.Point{X: x, Y: y}) {
					break
				}
			}
		} else {
			// A lake district: a tight cluster of blob MBRs.
			cx := World.MinX + rng.Float64()*World.Side(0)
			cy := World.MinY + rng.Float64()*World.Side(1)
			lakes := 3 + rng.Intn(25)
			for l := 0; l < lakes && len(items) < n; l++ {
				x := cx + rng.NormFloat64()*3000
				y := cy + rng.NormFloat64()*3000
				w := 50 + rng.Float64()*350
				h := 50 + rng.Float64()*350
				r := clampRect(geom.NewRect(x-w/2, y-h/2, x+w/2, y+h/2), World)
				items = append(items, rtree.Item{Rect: r, Obj: obj})
				obj++
			}
		}
	}
	return items[:n]
}

// GridStraddle returns n items deliberately hostile to grid
// partitioning: Gaussian clusters centered on the interior cell
// corners of a g x g grid over bounds, so item MBRs straddle partition
// boundaries and neighboring cells end up with near-identical MBR
// mindists, plus a heavy hotspot in one cell for population skew:
// touching and near-identical MBRs are where tie-breaks and boundary
// arithmetic are weakest. Object IDs are 0..n-1.
func GridStraddle(seed int64, n, g int, bounds geom.Rect, maxSide float64) []rtree.Item {
	if g < 2 {
		g = 2
	}
	rng := rand.New(rand.NewSource(seed))
	// Interior grid corners: (g-1)^2 boundary hotspots.
	type corner struct{ x, y float64 }
	corners := make([]corner, 0, (g-1)*(g-1))
	for i := 1; i < g; i++ {
		for j := 1; j < g; j++ {
			corners = append(corners, corner{
				x: bounds.MinX + bounds.Side(0)*float64(i)/float64(g),
				y: bounds.MinY + bounds.Side(1)*float64(j)/float64(g),
			})
		}
	}
	// Cluster spread of ~one tenth of a cell keeps most mass within
	// the four cells meeting at the corner.
	stddev := math.Min(bounds.Side(0), bounds.Side(1)) / float64(g) / 10
	hotX := bounds.MinX + bounds.Side(0)/(2*float64(g))
	hotY := bounds.MinY + bounds.Side(1)/(2*float64(g))
	items := make([]rtree.Item, n)
	for i := range items {
		var cx, cy float64
		if rng.Float64() < 0.3 {
			// Population skew: 30% of the data piles into the first cell.
			cx = hotX + rng.NormFloat64()*stddev
			cy = hotY + rng.NormFloat64()*stddev
		} else {
			c := corners[rng.Intn(len(corners))]
			cx = c.x + rng.NormFloat64()*stddev
			cy = c.y + rng.NormFloat64()*stddev
		}
		w := rng.Float64() * maxSide / 2
		h := rng.Float64() * maxSide / 2
		items[i] = rtree.Item{
			Rect: clampRect(geom.NewRect(cx-w, cy-h, cx+w, cy+h), bounds),
			Obj:  int64(i),
		}
	}
	return items
}

// town is an urban center for the street generator.
type town struct {
	x, y, spread float64
}

func placeTowns(rng *rand.Rand, n int) []town {
	towns := make([]town, n)
	for i := range towns {
		towns[i] = town{
			x:      World.MinX + rng.Float64()*World.Side(0),
			y:      World.MinY + rng.Float64()*World.Side(1),
			spread: 2000 + rng.Float64()*8000,
		}
	}
	return towns
}

// inflate widens a (possibly degenerate) segment MBR by w on each axis.
func inflate(r geom.Rect, w float64) geom.Rect {
	return geom.Rect{MinX: r.MinX - w/2, MinY: r.MinY - w/2, MaxX: r.MaxX + w/2, MaxY: r.MaxY + w/2}
}

// clampRect clamps each coordinate of r into bounds, so the result is
// always a valid rectangle inside bounds (rectangles fully outside
// collapse onto the nearest boundary).
func clampRect(r geom.Rect, bounds geom.Rect) geom.Rect {
	clamp := func(v, lo, hi float64) float64 {
		return math.Min(math.Max(v, lo), hi)
	}
	return geom.NewRect(
		clamp(r.MinX, bounds.MinX, bounds.MaxX),
		clamp(r.MinY, bounds.MinY, bounds.MaxY),
		clamp(r.MaxX, bounds.MinX, bounds.MaxX),
		clamp(r.MaxY, bounds.MinY, bounds.MaxY),
	)
}

// Bounds returns the MBR of items (zero Rect for an empty slice).
func Bounds(items []rtree.Item) geom.Rect {
	if len(items) == 0 {
		return geom.Rect{}
	}
	r := items[0].Rect
	for _, it := range items[1:] {
		r = r.Union(it.Rect)
	}
	return r
}
