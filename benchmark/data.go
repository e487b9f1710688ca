package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/workload"
)

// dataSeed fixes the datasets and the shape of every workload: where the
// query clusters sit, which queries and dataset combinations are popular.
// -seed draws one realisation of that shape: it moves every query box by a
// random fraction of its side, renames the datasets by a random permutation
// (they are statistically alike: same anatomy, same size, different
// objects), and draws the order the repeating streams replay their pools
// in. So two seeds never share a query, yet ask the same kind of work.
//
// Letting the seed also pick the cluster centres and the popular queries
// compares seeds, not commits: the stock zipf scenario ran at 12k to 43k
// queries/s across six seeds, depending on whether its four centres fell on
// dense data or in empty space, and with stock popularity (zipf 0.9) the ten
// most popular queries carry a quarter of the traffic, so their few result
// sizes moved bytes allocated per query by 11%.
const dataSeed = 1

// sizeSpec is how much work each workload does. full is the benchmark; smoke
// is the tier-1 test's.
type sizeSpec struct {
	datasets       int
	objects        int // per dataset
	exploreQueries int // explore_cold: queries per exploration
	hotStream      int // serve_hot: stream length
	hotPool        int // serve_hot: distinct queries
	scanQueries    int // serve_scan: queries per pass
	driftQueries   int // adapt_concurrent: queries per exploration
	convergePasses int // serve_*: passes over the stream during set-up
	setups         int // serve_*: how often set-up is repeated (median reported)
	probeQueries   int // cluster and fault probes: queries routed
}

var sizes = map[string]sizeSpec{
	"full": {
		datasets: 10, objects: 100000,
		exploreQueries: 1000, hotStream: 40000, hotPool: 10000,
		scanQueries: 2000, driftQueries: 4000,
		convergePasses: 3, setups: 3, probeQueries: 20000,
	},
	"smoke": {
		datasets: 5, objects: 4000,
		exploreQueries: 100, hotStream: 1200, hotPool: 300,
		scanQueries: 150, driftQueries: 300,
		convergePasses: 3, setups: 1, probeQueries: 400,
	},
}

// stream is one workload's queries: the distinct queries, the order they
// are sent in (indices into distinct), and what the oracle says each must
// return.
type stream struct {
	name     string
	distinct []workload.Query
	order    []int32
	want     []fingerprint
}

func (s *stream) query(pos int) (workload.Query, int32) {
	d := s.order[pos]
	return s.distinct[d], d
}

func identityOrder(n int) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// generateData builds the datasets every workload explores.
func generateData(sz sizeSpec) [][]object.Object {
	return datagen.GenerateDatasets(datagen.Config{
		Seed:       dataSeed,
		NumObjects: sz.objects,
		Layout:     datagen.Clustered,
	}, sz.datasets)
}

// anatomy returns the centres of the data clusters all datasets share.
func anatomy() []geom.Vec {
	return datagen.Anatomy(datagen.Config{
		Seed:        dataSeed,
		Layout:      datagen.Clustered,
		ClusterSeed: dataSeed*31 + 17, // GenerateDatasets' shared-anatomy derivation
	})
}

// queryCentres returns n query cluster centres sitting on the data: the
// datasets' shared anatomy, shuffled and offset by one data-cluster sigma
// (the paper's Figure 3 shows query clusters on the data without targeting
// the density peaks). They depend on the data seed only.
func queryCentres(n int) []geom.Vec {
	anatomy := anatomy()
	r := rand.New(rand.NewSource(dataSeed + 101))
	r.Shuffle(len(anatomy), func(i, j int) { anatomy[i], anatomy[j] = anatomy[j], anatomy[i] })
	if n > len(anatomy) {
		n = len(anatomy)
	}
	const sigma = 0.03 // datagen's default ClusterSigmaFrac on the unit box
	bounds := geom.UnitBox()
	centres := make([]geom.Vec, n)
	for i, c := range anatomy[:n] {
		centres[i] = geom.Vec{
			X: c.X + r.NormFloat64()*sigma,
			Y: c.Y + r.NormFloat64()*sigma,
			Z: c.Z + r.NormFloat64()*sigma,
		}.Max(bounds.Min).Min(bounds.Max)
	}
	return centres
}

// sparseCentres returns n query cluster centres in the diffuse background
// between the data clusters: the first points of a Halton sequence that lie
// at least minGap from every anatomy centre and from the volume's faces.
// Queries there return a handful of objects, so what a query costs is the
// serving stack's fixed overhead, not the copying of its result.
func sparseCentres(n int) []geom.Vec {
	anatomy := anatomy()
	const minGap = 0.2 // more than six data-cluster sigmas
	halton := func(i, b int) float64 {
		f, r := 1.0, 0.0
		for ; i > 0; i /= b {
			f /= float64(b)
			r += f * float64(i%b)
		}
		return r
	}
	var centres []geom.Vec
	for i := 1; len(centres) < n && i < 1<<16; i++ {
		p := geom.V(halton(i, 2), halton(i, 3), halton(i, 5))
		ok := p.X > 0.1 && p.X < 0.9 && p.Y > 0.1 && p.Y < 0.9 && p.Z > 0.1 && p.Z < 0.9
		for _, a := range anatomy {
			d := p.Sub(a)
			ok = ok && d.X*d.X+d.Y*d.Y+d.Z*d.Z >= minGap*minGap
		}
		if ok {
			centres = append(centres, p)
		}
	}
	return centres
}

// exploreMixes are the four Figure-4 workload mixes.
var exploreMixes = []struct {
	name string
	rng  workload.RangeDist
	comb workload.CombDist
}{
	{"clustered/zipf", workload.RangeClustered, workload.CombZipf},
	{"clustered/heavy-hitter", workload.RangeClustered, workload.CombHeavyHitter},
	{"clustered/self-similar", workload.RangeClustered, workload.CombSelfSimilar},
	{"uniform/uniform", workload.RangeUniform, workload.CombUniform},
}

// exploreStreams builds one exploration per Figure-4 mix: k=5, qvol 1e-4,
// ten query clusters on the data anatomy.
func exploreStreams(sz sizeSpec, seed int64) ([]*stream, error) {
	centres := queryCentres(10)
	out := make([]*stream, len(exploreMixes))
	for m, mix := range exploreMixes {
		cfg := workload.Config{
			Seed:             dataSeed*1009 + int64(m),
			NumQueries:       sz.exploreQueries,
			NumDatasets:      sz.datasets,
			DatasetsPerQuery: 5,
			QueryVolumeFrac:  1e-4,
			RangeDist:        mix.rng,
			CombDist:         mix.comb,
		}
		if mix.rng == workload.RangeClustered {
			cfg.Centers = centres
		}
		w, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		out[m] = &stream{name: mix.name, distinct: w.Queries, order: identityOrder(len(w.Queries))}
		out[m].realise(sz, seed*1009+int64(m))
	}
	return out, nil
}

// jitterFrac is how far, as a share of its side, -seed may move a query box
// along each axis.
const jitterFrac = 0.05

// realise turns the stream's fixed shape into the seed's realisation of it:
// every box moved by up to jitterFrac of its side, every dataset renamed by
// one random permutation.
func (s *stream) realise(sz sizeSpec, seed int64) {
	r := rand.New(rand.NewSource(seed))
	rename := r.Perm(sz.datasets)
	bounds := geom.UnitBox()
	for i := range s.distinct {
		q := &s.distinct[i]
		size := q.Range.Size()
		shift := geom.Vec{
			X: (2*r.Float64() - 1) * jitterFrac * size.X,
			Y: (2*r.Float64() - 1) * jitterFrac * size.Y,
			Z: (2*r.Float64() - 1) * jitterFrac * size.Z,
		}
		min := q.Range.Min.Add(shift).Max(bounds.Min).Min(bounds.Max.Sub(size))
		q.Range = geom.NewBox(min, min.Add(size))
		renamed := make([]object.DatasetID, len(q.Datasets))
		for j, ds := range q.Datasets {
			renamed[j] = object.DatasetID(rename[ds])
		}
		q.Datasets = renamed
	}
}

// popularityTheta is the zipf exponent of query popularity in the repeating
// streams. The stock scenarios use 0.9, under which the ten most popular
// queries carry a quarter of the traffic; 0.5 keeps the skew and spreads the
// weight over thousands of queries.
const popularityTheta = 0.5

// zipfOrder draws a stream of n positions over a pool of the given size with
// zipf(theta) popularity: pool index 0 is the most popular query.
func zipfOrder(r *rand.Rand, pool, n int, theta float64) []int32 {
	sample := workload.NewZipfSampler(r, pool, theta)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(sample())
	}
	return order
}

// hotStream is the stock zipf scenario (four tight clusters, zipf
// combinations, a pool of distinct queries replayed with zipf popularity)
// with its cluster centres fixed in the data's diffuse background.
func hotStream(sz sizeSpec, seed int64) (*stream, error) {
	w, err := workload.Generate(workload.Config{
		Seed:             dataSeed,
		NumQueries:       sz.hotPool,
		NumDatasets:      sz.datasets,
		DatasetsPerQuery: 3,
		QueryVolumeFrac:  1e-4,
		RangeDist:        workload.RangeClustered,
		CombDist:         workload.CombZipf,
		Centers:          sparseCentres(4),
		SigmaFactor:      0.2,
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed + 0x5eed))
	s := &stream{
		name:     "zipf",
		distinct: w.Queries,
		order:    zipfOrder(r, len(w.Queries), sz.hotStream, popularityTheta),
	}
	s.realise(sz, seed)
	return s, nil
}

// scanStream is the stock adversarial scenario: a Halton sweep of the whole
// volume with round-robin combinations, nothing ever reused.
func scanStream(sz sizeSpec, seed int64) (*stream, error) {
	w, err := workload.GenerateScenario("adversarial", workload.ScenarioConfig{
		Seed:             dataSeed,
		NumQueries:       sz.scanQueries,
		NumDatasets:      sz.datasets,
		DatasetsPerQuery: 3,
		QueryVolumeFrac:  1e-3,
	})
	if err != nil {
		return nil, err
	}
	s := &stream{name: "adversarial", distinct: w.Queries, order: identityOrder(len(w.Queries))}
	s.realise(sz, seed)
	return s, nil
}

// driftStream is the stock drift scenario (the hot region migrates over
// three phases of two clusters each; every phase replays its own pool of
// distinct queries with zipf popularity, zipf(2) combinations) with its six
// cluster centres taken from the data anatomy.
func driftStream(sz sizeSpec, seed int64) (*stream, error) {
	const phases, centresPerPhase = 3, 2
	r := rand.New(rand.NewSource(dataSeed))
	bounds := geom.UnitBox()
	side := math.Cbrt(1e-4 * bounds.Volume())
	combos := workload.Combinations(sz.datasets, 3)
	r.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	combo := workload.NewZipfSampler(r, len(combos), 2)
	centres := queryCentres(phases * centresPerPhase)
	sigma := 0.2 * side
	lo := bounds.Min.Add(geom.Splat(side / 2))
	hi := bounds.Max.Sub(geom.Splat(side / 2))

	s := &stream{name: "drift"}
	rr := rand.New(rand.NewSource(seed + 0x5eed))
	for p := 0; p < phases; p++ {
		from, to := p*sz.driftQueries/phases, (p+1)*sz.driftQueries/phases
		pool := (to - from) / 4
		if pool < 8 {
			pool = 8
		}
		base := len(s.distinct)
		for j := 0; j < pool; j++ {
			c := centres[(p*centresPerPhase+r.Intn(centresPerPhase))%len(centres)]
			c = geom.Vec{
				X: c.X + r.NormFloat64()*sigma,
				Y: c.Y + r.NormFloat64()*sigma,
				Z: c.Z + r.NormFloat64()*sigma,
			}.Max(lo).Min(hi)
			s.distinct = append(s.distinct, workload.Query{
				ID:       base + j,
				Range:    geom.Cube(c, side),
				Datasets: combos[combo()],
			})
		}
		for _, d := range zipfOrder(rr, pool, to-from, popularityTheta) {
			s.order = append(s.order, int32(base)+d)
		}
	}
	s.realise(sz, seed)
	return s, nil
}

// fingerprint identifies a result set independent of its order: the object
// count and two commutative folds of a hash over every field of every
// object.
type fingerprint struct {
	n        uint32
	sum, xor uint64
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hashObject(o *object.Object) uint64 {
	h := o.ID*0x9e3779b97f4a7c15 + uint64(o.Dataset)
	h = mix64(h ^ math.Float64bits(o.Center.X))
	h = h*31 + math.Float64bits(o.Center.Y)
	h = h*31 + math.Float64bits(o.Center.Z)
	h = h*31 + math.Float64bits(o.HalfExtent.X)
	h = h*31 + math.Float64bits(o.HalfExtent.Y)
	h = h*31 + math.Float64bits(o.HalfExtent.Z)
	return mix64(h)
}

func (f *fingerprint) add(o *object.Object) {
	h := hashObject(o)
	f.n++
	f.sum += h
	f.xor ^= h
}

func fingerprintOf(objs []object.Object) fingerprint {
	var f fingerprint
	for i := range objs {
		f.add(&objs[i])
	}
	return f
}

// oracle answers range queries from the in-memory objects, sharing no code
// with the system under test. Each dataset is kept sorted by centre x so a
// query tests only the objects whose x interval can reach it; everything in
// that slab is tested by brute force. A sample of the queries is answered a
// second time by testing every object, to check the slab arithmetic.
type oracle struct {
	sets []oracleSet
}

type oracleSet struct {
	objs  []object.Object // sorted by Center.X
	xs    []float64       // Center.X of objs
	maxHX float64         // largest HalfExtent.X
}

func newOracle(data [][]object.Object) *oracle {
	o := &oracle{sets: make([]oracleSet, len(data))}
	for i, objs := range data {
		s := &o.sets[i]
		s.objs = append([]object.Object(nil), objs...)
		sort.Slice(s.objs, func(a, b int) bool { return s.objs[a].Center.X < s.objs[b].Center.X })
		s.xs = make([]float64, len(s.objs))
		for j := range s.objs {
			s.xs[j] = s.objs[j].Center.X
			s.maxHX = math.Max(s.maxHX, s.objs[j].HalfExtent.X)
		}
	}
	return o
}

// hits reports whether the closed box of o intersects the closed box q.
func hits(o *object.Object, q geom.Box) bool {
	return o.Center.X-o.HalfExtent.X <= q.Max.X && q.Min.X <= o.Center.X+o.HalfExtent.X &&
		o.Center.Y-o.HalfExtent.Y <= q.Max.Y && q.Min.Y <= o.Center.Y+o.HalfExtent.Y &&
		o.Center.Z-o.HalfExtent.Z <= q.Max.Z && q.Min.Z <= o.Center.Z+o.HalfExtent.Z
}

func (o *oracle) answer(q workload.Query, everyObject bool) fingerprint {
	var f fingerprint
	for _, ds := range q.Datasets {
		s := &o.sets[ds]
		from, to := 0, len(s.objs)
		if !everyObject {
			from = sort.SearchFloat64s(s.xs, q.Range.Min.X-s.maxHX)
			to = sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > q.Range.Max.X+s.maxHX })
		}
		for i := from; i < to; i++ {
			if hits(&s.objs[i], q.Range) {
				f.add(&s.objs[i])
			}
		}
	}
	return f
}

// oracleCheckEvery is the sampling stride of the every-object re-check.
const oracleCheckEvery = 97

// fill computes what every distinct query of the streams must return, in
// parallel over the processors, and returns how long that took.
func (o *oracle) fill(streams ...*stream) (time.Duration, error) {
	t0 := time.Now()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, s := range streams {
		s.want = make([]fingerprint, len(s.distinct))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *stream, w int) {
				defer wg.Done()
				for i := w; i < len(s.distinct); i += workers {
					s.want[i] = o.answer(s.distinct[i], false)
					if i%oracleCheckEvery == 0 && s.want[i] != o.answer(s.distinct[i], true) {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("oracle: slab answer of %s query %d differs from the every-object answer", s.name, i)
						}
						mu.Unlock()
					}
				}
			}(s, w)
		}
	}
	wg.Wait()
	return time.Since(t0), firstErr
}
