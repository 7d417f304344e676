package simtest

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"distjoin/internal/datagen"
	"distjoin/internal/estimate"
	"distjoin/internal/geom"
	"distjoin/internal/join"
	"distjoin/internal/rtree"
)

// Workload names a dataset shape for one scenario side pair.
type Workload int

const (
	// WorkloadUniform joins two uniform sets.
	WorkloadUniform Workload = iota
	// WorkloadClustered joins two Gaussian-cluster sets (skew on both
	// sides — the partition-boundary hazard workload).
	WorkloadClustered
	// WorkloadSkewed joins a clustered set with a uniform one.
	WorkloadSkewed
	// WorkloadSelf joins one clustered set with itself under SelfJoin
	// semantics.
	WorkloadSelf
	numWorkloads
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case WorkloadUniform:
		return "uniform"
	case WorkloadClustered:
		return "clustered"
	case WorkloadSkewed:
		return "skewed"
	case WorkloadSelf:
		return "self"
	default:
		return fmt.Sprintf("Workload(%d)", int(w))
	}
}

// EDmaxMode selects how the scenario overrides the initial eDmax
// estimate of the adaptive multi-stage algorithms.
type EDmaxMode int

const (
	// EDmaxModel uses the paper's Eq. 3 model estimate (no override).
	EDmaxModel EDmaxMode = iota
	// EDmaxUnder forces a severe underestimate (0.25 x the true k-th
	// distance), exercising the compensation machinery.
	EDmaxUnder
	// EDmaxOver forces a severe overestimate (4 x the true k-th
	// distance), exercising the overestimate-detection path (AM-KDJ
	// line 8).
	EDmaxOver
	numEDmaxModes
)

// String implements fmt.Stringer.
func (m EDmaxMode) String() string {
	switch m {
	case EDmaxModel:
		return "model"
	case EDmaxUnder:
		return "under"
	case EDmaxOver:
		return "over"
	default:
		return fmt.Sprintf("EDmaxMode(%d)", int(m))
	}
}

// Scenario is one fully-determined simulation configuration: the data,
// the query, and every engine knob. It is a pure function of its Seed
// (see FromSeed), so any failure reproduces from one integer, or, for a
// scenario the fuzzer built, of its Bytes (see FromBytes).
type Scenario struct {
	Seed int64
	// Bytes is the fuzz input the scenario was decoded from, empty for
	// one built by FromSeed. FromBytes clamps and overrides knobs, so the
	// seed alone does not rebuild such a scenario; the bytes do.
	Bytes string

	// Data shape.
	Workload           Workload
	NLeft, NRight      int
	Clusters           int     // cluster count for clustered/skewed/self sides
	Stddev             float64 // cluster spread
	MaxSide            float64 // max rectangle side
	WorldSide          float64 // square world extent
	SubSeedL, SubSeedR int64

	// Index shape.
	Fanout   int // R-tree fanout; 0 means PageSize-derived
	PageSize int // store page size for the trees
	BufBytes int // buffer-pool bytes per tree, when PoolSpare is 0
	// PoolSpare sizes each tree's pool relative to the tree itself, in
	// pages: negative, that many pages short of holding it (evictions,
	// and a sweep-order memo of permutations only); positive, that many
	// pages beyond it (room for decoded nodes, for some of them or for
	// all); zero leaves BufBytes in force, on whichever side it falls.
	PoolSpare int

	// Query shape.
	K            int
	BatchK       int // AM-IDJ stage growth
	QueueMem     int // hybrid main-queue memory budget, bytes
	EDmaxMode    EDmaxMode
	Sweep        join.SweepPolicy
	DQPolicy     join.DistanceQueuePolicy
	Correction   estimate.Mode
	NoQueueModel bool // the A4 ablation: overflow-split-only queue
	Refine       bool // rank by exact center distances via Options.Refiner
}

// sized bounds keep the harness fast: the brute-force oracle is
// O(NLeft x NRight) and the HS baselines are deliberately slow.
const (
	minN, maxN = 60, 320
	maxK       = 600
)

// FromSeed deterministically derives a scenario from seed. Every knob
// the engine exposes is randomized within harness-safe bounds; the
// same seed always yields the same scenario on every platform
// (math/rand's generator is stable).
func FromSeed(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{
		Seed:      seed,
		Workload:  Workload(rng.Intn(int(numWorkloads))),
		NLeft:     minN + rng.Intn(maxN-minN+1),
		NRight:    minN + rng.Intn(maxN-minN+1),
		Clusters:  1 + rng.Intn(6),
		Stddev:    100 + rng.Float64()*500,
		MaxSide:   5 + rng.Float64()*35,
		WorldSide: 2000 + rng.Float64()*6000,
		SubSeedL:  rng.Int63(),
		SubSeedR:  rng.Int63(),

		PageSize: []int{1024, 2048, 4096}[rng.Intn(3)],
		BufBytes: 4096 * (1 + rng.Intn(32)),

		BatchK:   0, // filled below from K
		QueueMem: 512 * (1 + rng.Intn(16)),
	}
	rng.Intn(3) // a retired knob's draw: dropping it would remap every logged seed and fuzz corpus entry
	s.EDmaxMode = EDmaxMode(rng.Intn(int(numEDmaxModes)))
	s.DQPolicy = join.DistanceQueuePolicy(rng.Intn(2))
	s.Correction = estimate.Mode(rng.Intn(4))
	s.NoQueueModel = rng.Intn(4) == 0
	s.Refine = rng.Intn(4) == 0
	if s.Workload == WorkloadSelf {
		s.NRight = s.NLeft
		s.SubSeedR = s.SubSeedL
	}
	// Fanout-driven trees half the time, page-size-driven otherwise.
	// Pack rejects a fanout beyond the page capacity, so clamp.
	if rng.Intn(2) == 0 {
		s.Fanout = 4 + rng.Intn(28)
		if cap := rtree.PageCapacity(s.PageSize); s.Fanout > cap {
			s.Fanout = cap
		}
	}
	s.K = 1 + rng.Intn(maxK)
	s.BatchK = 1 + rng.Intn(s.K)
	sweeps := []join.SweepPolicy{
		join.OptimizedSweep,
		join.FixedSweep,
		{SelectAxis: true},
		{SelectDirection: true},
	}
	s.Sweep = sweeps[rng.Intn(len(sweeps))]
	// Drawn last, so every earlier knob of a logged seed keeps its value.
	// Spare pages start small: one page is room for one or two decoded
	// nodes, after which the memo goes on with permutations.
	side, size := rng.Intn(3), rng.Intn(4)
	switch side {
	case 1:
		s.PoolSpare = -(1 + size)
	case 2:
		s.PoolSpare = []int{1, 2, 4, 48}[size]
	}
	return s
}

// FromBytes decodes a scenario from raw bytes — the shared decoder the
// fuzz targets feed. The first 8 bytes are the seed (zero-padded);
// trailing bytes, when present, override individual knobs so the
// fuzzer can explore knob combinations the seed->scenario map alone
// would visit rarely. Sizes are clamped harder than FromSeed so fuzz
// iterations stay fast.
func FromBytes(data []byte) Scenario {
	var buf [8]byte
	copy(buf[:], data)
	s := FromSeed(int64(binary.LittleEndian.Uint64(buf[:])))
	s.Bytes = string(data)
	// Knob overrides from trailing bytes (each optional).
	get := func(i int) (byte, bool) {
		if len(data) > 8+i {
			return data[8+i], true
		}
		return 0, false
	}
	if b, ok := get(0); ok {
		s.Workload = Workload(int(b) % int(numWorkloads))
		if s.Workload == WorkloadSelf {
			s.NRight = s.NLeft
			s.SubSeedR = s.SubSeedL
		}
	}
	// Override byte 1 is reserved: it set a retired knob, and the
	// later bytes keep their positions so corpus entries still decode
	// to the same scenarios.
	if b, ok := get(2); ok {
		s.EDmaxMode = EDmaxMode(int(b) % int(numEDmaxModes))
	}
	if b, ok := get(3); ok {
		s.K = 1 + int(b)
	}
	if b, ok := get(4); ok {
		s.QueueMem = 512 * (1 + int(b)%16)
	}
	if b, ok := get(5); ok {
		s.Refine = b%2 == 1
	}
	if b, ok := get(6); ok {
		s.NoQueueModel = b%2 == 1
	}
	// Fuzz speed clamp: a quarter of the FromSeed ceiling.
	clamp := func(n int) int {
		if n > maxN/2 {
			return minN + n%(maxN/2-minN+1)
		}
		return n
	}
	s.NLeft, s.NRight = clamp(s.NLeft), clamp(s.NRight)
	if s.Workload == WorkloadSelf {
		s.NRight = s.NLeft
	}
	if s.K > 200 {
		s.K = 1 + s.K%200
	}
	if s.BatchK > s.K {
		s.BatchK = 1 + s.BatchK%s.K
	}
	return s
}

// String renders the scenario as one line, led by the seed repro.
func (s Scenario) String() string {
	pool := fmt.Sprintf("%dB", s.BufBytes)
	if s.PoolSpare != 0 {
		pool = fmt.Sprintf("tree%+dp", s.PoolSpare)
	}
	return fmt.Sprintf("seed=%d %s |L|=%d |R|=%d k=%d batchK=%d qmem=%d eDmax=%s sweep=%+v dq=%d corr=%s page=%d fanout=%d pool=%s refine=%v noqm=%v",
		s.Seed, s.Workload, s.NLeft, s.NRight, s.K, s.BatchK, s.QueueMem,
		s.EDmaxMode, s.Sweep, s.DQPolicy, s.Correction,
		s.PageSize, s.Fanout, pool, s.Refine, s.NoQueueModel)
}

// World returns the scenario's coordinate universe.
func (s Scenario) World() geom.Rect {
	return geom.NewRect(0, 0, s.WorldSide, s.WorldSide)
}

// Items materializes the two data sets. For WorkloadSelf both returned
// slices are the same items (value-identical), as self-join semantics
// require.
func (s Scenario) Items() (left, right []rtree.Item) {
	w := s.World()
	gen := func(seed int64, n int, clustered bool) []rtree.Item {
		if clustered {
			return datagen.GaussianClusters(seed, n, s.Clusters, w, s.Stddev, s.MaxSide)
		}
		return datagen.Uniform(seed, n, w, s.MaxSide)
	}
	switch s.Workload {
	case WorkloadUniform:
		return gen(s.SubSeedL, s.NLeft, false), gen(s.SubSeedR, s.NRight, false)
	case WorkloadClustered:
		return gen(s.SubSeedL, s.NLeft, true), gen(s.SubSeedR, s.NRight, true)
	case WorkloadSkewed:
		return gen(s.SubSeedL, s.NLeft, true), gen(s.SubSeedR, s.NRight, false)
	default: // WorkloadSelf
		l := gen(s.SubSeedL, s.NLeft, true)
		return l, l
	}
}

// SelfJoin reports whether the scenario runs under self-join
// semantics.
func (s Scenario) SelfJoin() bool { return s.Workload == WorkloadSelf }
