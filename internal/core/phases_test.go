package core

import (
	"fmt"
	"testing"
	"time"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

func TestPhaseTimesAccounting(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.ReducedScaleCostModel(), 0, 1)
	eng, err := New(dev, nil, geom.UnitBox(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	addPhaseDatasets(t, eng, dev, 3, 3000)
	dev.ResetClock()

	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	dss := []object.DatasetID{0, 1, 2}
	for i := 0; i < 6; i++ {
		if _, err := eng.Query(q, dss); err != nil {
			t.Fatal(err)
		}
	}

	p := eng.Metrics().Phases
	if p.LevelZeroBuild == 0 {
		t.Error("no level-0 build time recorded")
	}
	if p.Refinement == 0 {
		t.Error("no refinement time recorded")
	}
	if p.MergeWrites == 0 {
		t.Error("no merge-write time recorded")
	}
	if p.MergeReads == 0 {
		t.Error("no merge-read time recorded")
	}
	// Phases are disjoint clock intervals, so their sum is bounded by the
	// total simulated time.
	if total := dev.Clock(); p.Total() > total {
		t.Fatalf("phase sum %v exceeds wall clock %v", p.Total(), total)
	}
	// The phases should dominate the clock (little unattributed time).
	if total := dev.Clock(); p.Total() < total/2 {
		t.Fatalf("phases %v attribute less than half of %v", p.Total(), total)
	}
}

func TestPhaseTimesNoMerge(t *testing.T) {
	dev := simdisk.NewDeviceChannels(simdisk.ReducedScaleCostModel(), 0, 1)
	cfg := DefaultConfig()
	cfg.DisableMerging = true
	eng, err := New(dev, nil, geom.UnitBox(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	addPhaseDatasets(t, eng, dev, 3, 2000)
	q := geom.Cube(geom.V(0.5, 0.5, 0.5), 0.05)
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(q, []object.DatasetID{0, 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	p := eng.Metrics().Phases
	if p.MergeWrites != 0 || p.MergeReads != 0 {
		t.Fatalf("merge phases nonzero with merging disabled: %+v", p)
	}
	if p.TreeReads == 0 {
		t.Error("no tree-read time recorded")
	}
}

func TestPhaseTimesTotal(t *testing.T) {
	p := PhaseTimes{
		LevelZeroBuild: time.Second, Refinement: 2 * time.Second,
		TreeReads: 3 * time.Second, MergeReads: 4 * time.Second,
		MergeWrites: 5 * time.Second,
	}
	if p.Total() != 15*time.Second {
		t.Fatalf("Total = %v", p.Total())
	}
}

// addPhaseDatasets writes synthetic datasets directly (testSetup uses a
// zero-cost device, which would leave all phases at zero).
func addPhaseDatasets(t *testing.T, eng *Odyssey, dev *simdisk.Device, n, perDS int) {
	t.Helper()
	dss := datagen.GenerateDatasets(datagen.Config{Seed: 71, NumObjects: perDS, Clusters: 6}, n)
	for i, objs := range dss {
		raw, err := rawfile.Write(dev, fmt.Sprintf("ds%d", i), object.DatasetID(i), objs)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AddRaw(raw); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetClock()
}
