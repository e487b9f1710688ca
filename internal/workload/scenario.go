package workload

import (
	"fmt"
	"math"
	"math/rand"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

// The scenario lab: a matrix of named, seeded, deterministic workload
// generators modelling the traffic shapes a long-lived archive actually
// sees — static hotspots, hotspots that migrate mid-run, scan/point mixes,
// diurnal load curves, and an adversarial pattern built to defeat layout
// adaptivity. Every scenario is a pure function of (name, ScenarioConfig):
// the same seed always yields byte-identical queries and pacing.

// ScenarioConfig parametrizes scenario generation. Zero fields take the
// same defaults as Config.withDefaults plus a scenario-friendly query
// count.
type ScenarioConfig struct {
	Seed             int64
	NumQueries       int
	NumDatasets      int
	DatasetsPerQuery int
	Bounds           geom.Box
	// QueryVolumeFrac is the BASE query volume fraction; scan/point
	// scenarios scale individual queries around it.
	QueryVolumeFrac float64
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.NumQueries <= 0 {
		c.NumQueries = 300
	}
	if c.NumDatasets <= 0 {
		c.NumDatasets = 10
	}
	if c.DatasetsPerQuery <= 0 {
		c.DatasetsPerQuery = 3
	}
	if c.Bounds.Volume() == 0 {
		c.Bounds = geom.UnitBox()
	}
	if c.QueryVolumeFrac <= 0 {
		c.QueryVolumeFrac = 1e-4
	}
	return c
}

// ScenarioWorkload is a Workload plus open-loop pacing metadata.
type ScenarioWorkload struct {
	Workload
	Name        string
	Description string
	// Gaps paces open-loop replay: Gaps[i] is the relative delay before
	// query i is submitted, in units of the harness's base inter-arrival
	// gap (mean ≈ 1.0). nil means unpaced (closed loop).
	Gaps []float64
}

// scenarioDef couples a name to its generator.
type scenarioDef struct {
	name, desc string
	gen        func(cfg ScenarioConfig) (ScenarioWorkload, error)
}

var scenarioDefs = []scenarioDef{
	{"zipf", "static zipf hotspot: tight clusters, zipf combinations, steady arrivals", genZipf},
	{"drift", "drifting hotspot: hot region migrates across three phases, bursty arrivals", genDrift},
	{"scanheavy", "scan-heavy mix: 80% large scans / 20% point probes, uniform combinations", func(c ScenarioConfig) (ScenarioWorkload, error) { return genMix(c, 0.8) }},
	{"pointheavy", "point-heavy mix: 20% large scans / 80% point probes, zipf combinations", func(c ScenarioConfig) (ScenarioWorkload, error) { return genMix(c, 0.2) }},
	{"diurnal", "diurnal load: sinusoidal arrival rate over two cycles, day/night hotspots", genDiurnal},
	{"adversarial", "anti-layout: low-discrepancy center sweep, round-robin combinations, no reuse", genAdversarial},
}

// ScenarioNames lists the scenario matrix in its canonical order.
func ScenarioNames() []string {
	names := make([]string, len(scenarioDefs))
	for i, d := range scenarioDefs {
		names[i] = d.name
	}
	return names
}

// ScenarioDescription returns the one-line description for name ("" if
// unknown).
func ScenarioDescription(name string) string {
	for _, d := range scenarioDefs {
		if d.name == name {
			return d.desc
		}
	}
	return ""
}

// GenerateScenario builds the named scenario deterministically from cfg.
func GenerateScenario(name string, cfg ScenarioConfig) (ScenarioWorkload, error) {
	cfg = cfg.withDefaults()
	if cfg.DatasetsPerQuery > cfg.NumDatasets {
		return ScenarioWorkload{}, fmt.Errorf(
			"workload: k=%d exceeds n=%d", cfg.DatasetsPerQuery, cfg.NumDatasets)
	}
	for _, d := range scenarioDefs {
		if d.name == name {
			w, err := d.gen(cfg)
			if err != nil {
				return ScenarioWorkload{}, err
			}
			w.Name = d.name
			w.Description = d.desc
			return w, nil
		}
	}
	return ScenarioWorkload{}, fmt.Errorf(
		"workload: unknown scenario %q (want one of %v)", name, ScenarioNames())
}

// shuffledCombos builds the combination universe shuffled by r so popular
// combinations are not biased toward lexicographically small ones.
func shuffledCombos(r *rand.Rand, n, k int) [][]object.DatasetID {
	combos := Combinations(n, k)
	r.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	return combos
}

// uniformGaps is steady open-loop pacing: every gap is 1.0 base units.
func uniformGaps(n int) []float64 {
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = 1
	}
	return gaps
}

// repeatPoolSize is how many distinct queries back a repeating scenario: a
// quarter of the stream, so popular queries recur and result caching has
// something to earn.
func repeatPoolSize(n int) int {
	p := n / 4
	if p < 8 {
		p = 8
	}
	if p > n {
		p = n
	}
	return p
}

// zipfRepeat expands a pool of distinct queries into a stream of n queries
// whose popularity is zipf(theta)-distributed over the pool — the repetition
// pattern real archive front-ends see, and the one that makes result-cache
// capacity a live tuning axis.
func zipfRepeat(r *rand.Rand, pool []Query, n int, theta float64) []Query {
	sample := NewZipfSampler(r, len(pool), theta)
	queries := make([]Query, n)
	for i := range queries {
		q := pool[sample()]
		q.ID = i
		queries[i] = q
	}
	return queries
}

// genZipf is the static hotspot baseline: a handful of tight clusters with
// zipf-skewed combinations, zipf-repeated queries, and steady arrivals — the
// workload the layout is best at, so adaptivity must not regress it.
func genZipf(cfg ScenarioConfig) (ScenarioWorkload, error) {
	pool := repeatPoolSize(cfg.NumQueries)
	w, err := Generate(Config{
		Seed:             cfg.Seed,
		NumQueries:       pool,
		NumDatasets:      cfg.NumDatasets,
		DatasetsPerQuery: cfg.DatasetsPerQuery,
		Bounds:           cfg.Bounds,
		QueryVolumeFrac:  cfg.QueryVolumeFrac,
		RangeDist:        RangeClustered,
		CombDist:         CombZipf,
		ClusterCenters:   4,
		SigmaFactor:      0.2,
	})
	if err != nil {
		return ScenarioWorkload{}, err
	}
	r := rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	w.Queries = zipfRepeat(r, w.Queries, cfg.NumQueries, 0.9)
	return ScenarioWorkload{Workload: w, Gaps: uniformGaps(cfg.NumQueries)}, nil
}

// genDrift migrates the hot region across three disjoint phases: each phase
// clusters around fresh centers, so heat and cache entries earned in phase
// p are stale in phase p+1. Arrivals come in bursts of eight (seven
// back-to-back, then a long idle gap) so the queue oscillates between
// backlog and idle.
func genDrift(cfg ScenarioConfig) (ScenarioWorkload, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	side := math.Cbrt(cfg.QueryVolumeFrac * cfg.Bounds.Volume())
	combos := shuffledCombos(r, cfg.NumDatasets, cfg.DatasetsPerQuery)
	comboSampler := NewZipfSampler(r, len(combos), 2)

	const phases = 3
	const centersPerPhase = 2
	phaseCenters := make([][]geom.Vec, phases)
	for p := range phaseCenters {
		phaseCenters[p] = make([]geom.Vec, centersPerPhase)
		for i := range phaseCenters[p] {
			phaseCenters[p][i] = uniformPoint(r, cfg.Bounds)
		}
	}
	sigma := 0.2 * side

	// Each phase draws from its own pool of distinct queries, zipf-repeated:
	// the popular queries of phase p never recur in phase p+1, so cache
	// entries and heat earned early in the run go stale mid-run.
	queries := make([]Query, 0, cfg.NumQueries)
	gaps := make([]float64, cfg.NumQueries)
	var centers []geom.Vec
	rr := rand.New(rand.NewSource(cfg.Seed + 0x5eed))
	for p := 0; p < phases; p++ {
		lo := p * cfg.NumQueries / phases
		hi := (p + 1) * cfg.NumQueries / phases
		if hi == lo {
			continue
		}
		pool := make([]Query, repeatPoolSize(hi-lo))
		for j := range pool {
			base := phaseCenters[p][r.Intn(centersPerPhase)]
			center := geom.Vec{
				X: base.X + r.NormFloat64()*sigma,
				Y: base.Y + r.NormFloat64()*sigma,
				Z: base.Z + r.NormFloat64()*sigma,
			}
			center = clampCenter(center, cfg.Bounds, side/2)
			pool[j] = Query{
				Range:    geom.Cube(center, side),
				Datasets: combos[comboSampler()],
			}
		}
		phaseQueries := zipfRepeat(rr, pool, hi-lo, 0.9)
		for j := range phaseQueries {
			phaseQueries[j].ID = lo + j
		}
		queries = append(queries, phaseQueries...)
	}
	for i := range gaps {
		if i%8 == 0 {
			gaps[i] = 8
		}
	}
	for _, pc := range phaseCenters {
		centers = append(centers, pc...)
	}
	return ScenarioWorkload{
		Workload: Workload{
			Queries:      queries,
			Combinations: combos,
			Centers:      centers,
			QuerySide:    side,
		},
		Gaps: gaps,
	}, nil
}

// genMix interleaves large scans (volume 64x base) with point probes
// (volume base/64) at the given scan fraction, clustered so both kinds
// revisit the same hot regions.
func genMix(cfg ScenarioConfig, scanFrac float64) (ScenarioWorkload, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	baseSide := math.Cbrt(cfg.QueryVolumeFrac * cfg.Bounds.Volume())
	scanSide := baseSide * 4  // 64x the base volume
	pointSide := baseSide / 4 // base volume / 64
	combos := shuffledCombos(r, cfg.NumDatasets, cfg.DatasetsPerQuery)
	var comboSampler IndexSampler
	if scanFrac >= 0.5 {
		comboSampler = NewUniformSampler(r, len(combos))
	} else {
		comboSampler = NewZipfSampler(r, len(combos), 2)
	}

	const numCenters = 4
	centers := make([]geom.Vec, numCenters)
	for i := range centers {
		centers[i] = uniformPoint(r, cfg.Bounds)
	}
	sigma := 0.3 * scanSide

	queries := make([]Query, cfg.NumQueries)
	for i := range queries {
		side := pointSide
		if r.Float64() < scanFrac {
			side = scanSide
		}
		base := centers[r.Intn(numCenters)]
		center := geom.Vec{
			X: base.X + r.NormFloat64()*sigma,
			Y: base.Y + r.NormFloat64()*sigma,
			Z: base.Z + r.NormFloat64()*sigma,
		}
		center = clampCenter(center, cfg.Bounds, side/2)
		queries[i] = Query{
			ID:       i,
			Range:    geom.Cube(center, side),
			Datasets: combos[comboSampler()],
		}
	}
	return ScenarioWorkload{
		Workload: Workload{
			Queries:      queries,
			Combinations: combos,
			Centers:      centers,
			QuerySide:    baseSide,
		},
		Gaps: uniformGaps(cfg.NumQueries),
	}, nil
}

// genDiurnal models two day/night cycles: the arrival rate follows a
// sinusoid (peak ≈ 19x the trough), and the hot region flips between a
// "day" and a "night" cluster set with the cycle.
func genDiurnal(cfg ScenarioConfig) (ScenarioWorkload, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	side := math.Cbrt(cfg.QueryVolumeFrac * cfg.Bounds.Volume())
	combos := shuffledCombos(r, cfg.NumDatasets, cfg.DatasetsPerQuery)
	comboSampler := NewZipfSampler(r, len(combos), 2)

	const centersPerSet = 2
	daySet := make([]geom.Vec, centersPerSet)
	nightSet := make([]geom.Vec, centersPerSet)
	for i := range daySet {
		daySet[i] = uniformPoint(r, cfg.Bounds)
		nightSet[i] = uniformPoint(r, cfg.Bounds)
	}
	sigma := 0.2 * side

	const cycles = 2
	queries := make([]Query, cfg.NumQueries)
	gaps := make([]float64, cfg.NumQueries)
	for i := range queries {
		phase := 2 * math.Pi * cycles * float64(i) / float64(cfg.NumQueries)
		rate := 1 + 0.9*math.Sin(phase) // in (0.1, 1.9]
		gaps[i] = 1 / rate
		set := daySet
		if math.Sin(phase) < 0 {
			set = nightSet
		}
		base := set[r.Intn(centersPerSet)]
		center := geom.Vec{
			X: base.X + r.NormFloat64()*sigma,
			Y: base.Y + r.NormFloat64()*sigma,
			Z: base.Z + r.NormFloat64()*sigma,
		}
		center = clampCenter(center, cfg.Bounds, side/2)
		queries[i] = Query{
			ID:       i,
			Range:    geom.Cube(center, side),
			Datasets: combos[comboSampler()],
		}
	}
	centers := append(append([]geom.Vec{}, daySet...), nightSet...)
	return ScenarioWorkload{
		Workload: Workload{
			Queries:      queries,
			Combinations: combos,
			Centers:      centers,
			QuerySide:    side,
		},
		Gaps: gaps,
	}, nil
}

// genAdversarial is the anti-layout pattern: query centers sweep the volume
// on a low-discrepancy Halton sequence (no region is ever revisited while
// it is still hot) and combinations cycle round-robin through the whole
// universe (no combination ever dominates), so merging, caching, and heat
// ranking all earn nothing.
func genAdversarial(cfg ScenarioConfig) (ScenarioWorkload, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	side := math.Cbrt(cfg.QueryVolumeFrac * cfg.Bounds.Volume())
	combos := shuffledCombos(r, cfg.NumDatasets, cfg.DatasetsPerQuery)
	// Deterministic rotation start so the cycle is seed-dependent.
	start := r.Intn(len(combos))

	size := cfg.Bounds.Size()
	queries := make([]Query, cfg.NumQueries)
	for i := range queries {
		center := geom.Vec{
			X: cfg.Bounds.Min.X + halton(i+1, 2)*size.X,
			Y: cfg.Bounds.Min.Y + halton(i+1, 3)*size.Y,
			Z: cfg.Bounds.Min.Z + halton(i+1, 5)*size.Z,
		}
		center = clampCenter(center, cfg.Bounds, side/2)
		queries[i] = Query{
			ID:       i,
			Range:    geom.Cube(center, side),
			Datasets: combos[(start+i)%len(combos)],
		}
	}
	return ScenarioWorkload{
		Workload: Workload{
			Queries:      queries,
			Combinations: combos,
			QuerySide:    side,
		},
		Gaps: uniformGaps(cfg.NumQueries),
	}, nil
}

// halton returns element i of the base-b Halton low-discrepancy sequence
// in [0, 1).
func halton(i, b int) float64 {
	f := 1.0
	r := 0.0
	for i > 0 {
		f /= float64(b)
		r += f * float64(i%b)
		i /= b
	}
	return r
}

// Centroid returns the mean query center of queries[lo:hi], a cheap way to
// observe hotspot migration in tests and reports.
func Centroid(queries []Query, lo, hi int) geom.Vec {
	if lo < 0 {
		lo = 0
	}
	if hi > len(queries) {
		hi = len(queries)
	}
	if lo >= hi {
		return geom.Vec{}
	}
	var c geom.Vec
	for _, q := range queries[lo:hi] {
		mid := q.Range.Min.Add(q.Range.Max).Mul(0.5)
		c = c.Add(mid)
	}
	return c.Mul(1 / float64(hi-lo))
}
