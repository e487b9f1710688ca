package odyssey

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/core"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
)

// countingStorage is a pass-through Storage of the shape an out-of-tree
// back end takes (the benchmark module's tracing wrapper is the one that
// exists): it embeds the interface, overrides file creation and the four
// I/O methods, and counts the pages that cross it.
type countingStorage struct {
	simdisk.Storage
	files, readPages, writePages atomic.Int64
}

func (s *countingStorage) CreateFileInGroup(name, group string) simdisk.FileID {
	s.files.Add(1)
	return s.Storage.CreateFileInGroup(name, group)
}

func (s *countingStorage) ReadPageCtx(ctx context.Context, id simdisk.FileID, idx int64, buf []byte) error {
	s.readPages.Add(1)
	return s.Storage.ReadPageCtx(ctx, id, idx, buf)
}

func (s *countingStorage) ReadRunCtx(ctx context.Context, id simdisk.FileID, start, n int64) ([]byte, error) {
	s.readPages.Add(n)
	return s.Storage.ReadRunCtx(ctx, id, start, n)
}

func (s *countingStorage) WritePageCtx(ctx context.Context, id simdisk.FileID, idx int64, data []byte) error {
	s.writePages.Add(1)
	return s.Storage.WritePageCtx(ctx, id, idx, data)
}

func (s *countingStorage) AppendPageCtx(ctx context.Context, id simdisk.FileID, data []byte) (int64, error) {
	s.writePages.Add(1)
	return s.Storage.AppendPageCtx(ctx, id, data)
}

// TestStorageWrapperTransparency drives rawfile.Write → core.New → QueryCtx
// over the same fixture on a bare device and on a wrapped one. The wrapper
// must change nothing (results, clock, counters), and every page the device
// counted must have crossed it: a layer that type-asserted its way to the
// concrete device, or kept a second handle, would show up as a shortfall.
func TestStorageWrapperTransparency(t *testing.T) {
	data := testData(4, 1500, 11)
	w, err := GenerateWorkload(WorkloadConfig{
		Seed: 12, NumQueries: 60, NumDatasets: len(data), DatasetsPerQuery: 3,
		QueryVolumeFrac: 1e-4, ClusterCenters: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		results [][]Object
		clock   time.Duration
		stats   DiskStats
		pages   int64
	}
	// run answers the workload serially on dev, the way Explorer.QueryTimedCtx
	// drives the engine, waiting out background maintenance after each query
	// so the serving preset is as deterministic as the paper one.
	run := func(t *testing.T, dev simdisk.Storage, cfg core.Config, dropCaches bool) outcome {
		eng, err := core.New(dev, nil, geom.UnitBox(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		raws := map[DatasetID]*rawfile.Raw{}
		for i, objs := range data {
			raw, err := rawfile.Write(dev, fmt.Sprintf("ds%d.raw", i), DatasetID(i), objs)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AddRaw(raw); err != nil {
				t.Fatal(err)
			}
			raws[DatasetID(i)] = raw
		}
		var out outcome
		for _, q := range w.Queries {
			if dropCaches {
				dev.DropCaches()
			}
			ctx, _ := simdisk.WithOpScope(context.Background(), simdisk.PriForeground)
			objs, err := eng.QueryCtx(ctx, q.Range, q.Datasets)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Quiesce(context.Background()); err != nil {
				t.Fatal(err)
			}
			out.results = append(out.results, objs)
		}
		out.clock, out.stats, out.pages = dev.Clock(), dev.Stats(), storedPages(t, eng, raws)
		return out
	}

	serving := Options{AsyncMaintenance: true, CacheResults: true}.engineConfig()
	serving.MaintenanceWorkers = 1 // one worker: a serial device history
	for _, preset := range []struct {
		name string
		cfg  core.Config
		drop bool
	}{
		{"paper", Options{}.engineConfig(), true},
		{"serving", serving, false},
	} {
		t.Run(preset.name, func(t *testing.T) {
			cfg, drop := preset.cfg, preset.drop
			bare := run(t, simdisk.NewDeviceChannels(simdisk.ReducedScaleCostModel(), 256, 1), cfg, drop)
			wrapped := &countingStorage{Storage: simdisk.NewDeviceChannels(simdisk.ReducedScaleCostModel(), 256, 1)}
			got := run(t, wrapped, cfg, drop)

			if !reflect.DeepEqual(got.results, bare.results) {
				t.Error("results differ between the bare and the wrapped device")
			}
			if got.clock != bare.clock || got.stats != bare.stats || got.pages != bare.pages {
				t.Errorf("wrapped device: clock %v stats %+v pages %d\nbare device:    clock %v stats %+v pages %d",
					got.clock, got.stats, got.pages, bare.clock, bare.stats, bare.pages)
			}
			if wrapped.files.Load() < int64(len(data)) {
				t.Errorf("%d file creations crossed the wrapper, want at least one per dataset", wrapped.files.Load())
			}
			if dev, via := got.stats.PageWrites, wrapped.writePages.Load(); dev != via {
				t.Errorf("device wrote %d pages, %d crossed the wrapper", dev, via)
			}
			if dev, via := got.stats.PageReads+got.stats.CacheHits, wrapped.readPages.Load(); dev != via {
				t.Errorf("device served %d page reads, %d crossed the wrapper", dev, via)
			}
			if got.stats.PageReads == 0 || got.stats.PageWrites == 0 {
				t.Errorf("fixture exercised no I/O: %+v", got.stats)
			}
		})
	}
}
