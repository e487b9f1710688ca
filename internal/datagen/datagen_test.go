package datagen

import (
	"math"
	"testing"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, NumObjects: 500}
	a := Generate(cfg, 1)
	b := Generate(cfg, 1)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("object %d differs between identical-seed runs", i)
		}
	}
	c := Generate(Config{Seed: 43, NumObjects: 500}, 1)
	same := 0
	for i := range a {
		if a[i].Center == c[i].Center {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateRespectsBoundsAndIDs(t *testing.T) {
	bounds := geom.NewBox(geom.V(-10, 0, 5), geom.V(10, 40, 25))
	for _, layout := range []Layout{Clustered, Uniform, Filamentary} {
		cfg := Config{Seed: 7, NumObjects: 2000, Bounds: bounds, Layout: layout}
		objs := Generate(cfg, 4)
		if len(objs) != 2000 {
			t.Fatalf("%v: %d objects", layout, len(objs))
		}
		for i, o := range objs {
			if o.ID != uint64(i) {
				t.Fatalf("%v: object %d has ID %d", layout, i, o.ID)
			}
			if o.Dataset != 4 {
				t.Fatalf("%v: object %d has dataset %d", layout, i, o.Dataset)
			}
			if !bounds.Intersects(geom.Box{Min: o.Center, Max: o.Center}) {
				t.Fatalf("%v: center %v outside bounds", layout, o.Center)
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("%v: %v", layout, err)
			}
			if o.HalfExtent.X <= 0 || o.HalfExtent.Y <= 0 || o.HalfExtent.Z <= 0 {
				t.Fatalf("%v: degenerate half-extent %v", layout, o.HalfExtent)
			}
		}
	}
}

func TestObjectsAreSmall(t *testing.T) {
	cfg := Config{Seed: 1, NumObjects: 1000, ObjectSizeFrac: 0.001}
	objs := Generate(cfg, 0)
	side := geom.UnitBox().LongestSide()
	for _, o := range objs {
		if o.HalfExtent.Len() > 0.01*side {
			t.Fatalf("object half-extent %v too large for frac 0.001", o.HalfExtent)
		}
	}
}

func TestClusteredIsSkewed(t *testing.T) {
	// Clustered data must concentrate mass: partition space into 8 octants
	// and check the occupancy spread far exceeds uniform.
	spread := func(layout Layout) float64 {
		cfg := Config{Seed: 11, NumObjects: 4000, Layout: layout, Clusters: 5}
		objs := Generate(cfg, 0)
		var counts [8]int
		b := geom.UnitBox()
		c := b.Center()
		for _, o := range objs {
			i := 0
			if o.Center.X >= c.X {
				i |= 1
			}
			if o.Center.Y >= c.Y {
				i |= 2
			}
			if o.Center.Z >= c.Z {
				i |= 4
			}
			counts[i]++
		}
		mean := float64(len(objs)) / 8
		var chi2 float64
		for _, n := range counts {
			d := float64(n) - mean
			chi2 += d * d / mean
		}
		return chi2
	}
	uni := spread(Uniform)
	clu := spread(Clustered)
	if clu < 10*uni {
		t.Fatalf("clustered chi2 %.1f not ≫ uniform chi2 %.1f", clu, uni)
	}
}

func TestGenerateDatasetsDistinct(t *testing.T) {
	cfg := Config{Seed: 5, NumObjects: 300}
	dss := GenerateDatasets(cfg, 4)
	if len(dss) != 4 {
		t.Fatalf("%d datasets", len(dss))
	}
	for i, ds := range dss {
		if len(ds) != 300 {
			t.Fatalf("dataset %d has %d objects", i, len(ds))
		}
		for _, o := range ds {
			if o.Dataset != object.DatasetID(i) {
				t.Fatalf("dataset %d contains object tagged %d", i, o.Dataset)
			}
		}
	}
	// Different datasets must differ spatially.
	if dss[0][0].Center == dss[1][0].Center {
		t.Fatal("datasets 0 and 1 share object positions")
	}
}

func TestDefaults(t *testing.T) {
	got := (Config{}).withDefaults()
	if got.Bounds != geom.UnitBox() {
		t.Errorf("default bounds = %v", got.Bounds)
	}
	if got.Clusters != 20 || got.ClusterSigmaFrac != 0.03 ||
		got.ObjectSizeFrac != 0.001 || got.SizeJitter != 0.5 {
		t.Errorf("defaults = %+v", got)
	}
	if len(Generate(Config{NumObjects: -5}, 0)) != 0 {
		t.Error("negative NumObjects produced objects")
	}
}

func TestLayoutString(t *testing.T) {
	if Clustered.String() != "clustered" || Uniform.String() != "uniform" ||
		Filamentary.String() != "filamentary" {
		t.Error("layout names wrong")
	}
	if Layout(99).String() != "Layout(99)" {
		t.Error("unknown layout name wrong")
	}
}

func TestAnatomy(t *testing.T) {
	bounds := geom.NewBox(geom.V(0, 0, 0), geom.V(4, 4, 4))
	cfg := Config{Seed: 9, Clusters: 7, Bounds: bounds}

	// Clustered anatomy: one center per cluster, inside bounds, and stable
	// across calls.
	a := Anatomy(cfg)
	b := Anatomy(cfg)
	if len(a) != 7 {
		t.Fatalf("%d anatomy points", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("anatomy not deterministic")
		}
		if !bounds.Intersects(geom.Box{Min: a[i], Max: a[i]}) {
			t.Fatalf("anatomy point %v outside bounds", a[i])
		}
	}

	// ClusterSeed overrides Seed, matching GenerateDatasets' sharing: two
	// configs with different Seeds but equal ClusterSeeds agree.
	c1 := cfg
	c1.Seed, c1.ClusterSeed = 100, 55
	c2 := cfg
	c2.Seed, c2.ClusterSeed = 200, 55
	x, y := Anatomy(c1), Anatomy(c2)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("shared ClusterSeed produced different anatomy")
		}
	}

	// Filamentary anatomy returns midpoints; uniform has none.
	fil := cfg
	fil.Layout = Filamentary
	if got := Anatomy(fil); len(got) != 7 {
		t.Fatalf("filamentary anatomy = %d points", len(got))
	}
	uni := cfg
	uni.Layout = Uniform
	if got := Anatomy(uni); got != nil {
		t.Fatalf("uniform anatomy = %v", got)
	}
}

func TestAnatomyMatchesGeneratedClusters(t *testing.T) {
	// Objects generated with a shared ClusterSeed must concentrate near the
	// anatomy points Anatomy reports.
	cfg := Config{Seed: 3, NumObjects: 3000, Clusters: 5, ClusterSeed: 77,
		BackgroundFrac: -1}
	objs := Generate(cfg, 0)
	centers := Anatomy(cfg)
	near := 0
	for _, o := range objs {
		for _, c := range centers {
			if o.Center.Sub(c).Len() < 0.15 {
				near++
				break
			}
		}
	}
	if frac := float64(near) / float64(len(objs)); frac < 0.8 {
		t.Fatalf("only %.0f%% of objects near reported anatomy", frac*100)
	}
}

func TestGaussianClampedNotNaN(t *testing.T) {
	cfg := Config{Seed: 3, NumObjects: 1000, Layout: Clustered,
		ClusterSigmaFrac: 5} // huge sigma forces clamping
	objs := Generate(cfg, 0)
	b := geom.UnitBox()
	onBoundary := 0
	for _, o := range objs {
		if math.IsNaN(o.Center.X) {
			t.Fatal("NaN center")
		}
		if !b.Intersects(geom.Box{Min: o.Center, Max: o.Center}) {
			t.Fatalf("center %v escaped bounds", o.Center)
		}
		if o.Center.X == 0 || o.Center.X == 1 {
			onBoundary++
		}
	}
	if onBoundary == 0 {
		t.Error("huge sigma produced no clamped points; clamping untested")
	}
}
