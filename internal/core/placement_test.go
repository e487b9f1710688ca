package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spaceodyssey/internal/datagen"
	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/rawfile"
	"spaceodyssey/internal/simdisk"
	"spaceodyssey/internal/workload"
)

func hashMember(key string, devices int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(devices))
}

// affinityPlacement is the affinity policy the array's rule replaced: every
// file on its group's member by hash, and a merge file in the group of its
// most-queried member dataset (ties to the lowest id), the hint the engine
// used to compute. queried counts, per dataset group, the queries so far.
type affinityPlacement struct{ queried map[string]int }

func (a affinityPlacement) Place(name, group string, devices int) int {
	if members, merge := strings.CutPrefix(name, "merge:"); merge {
		best := -1
		for _, ds := range strings.Split(members, ",") {
			if n := a.queried["ds"+ds]; n > best {
				group, best = "ds"+ds, n
			}
		}
	}
	return hashMember(group, devices)
}

// roundRobinPlacement is the other policy the rule replaced: every file
// dealt to the next member, groups ignored.
type roundRobinPlacement struct{ next atomic.Uint32 }

func (r *roundRobinPlacement) Place(name, group string, devices int) int {
	return int((r.next.Add(1) - 1) % uint32(devices))
}

// TestPlacementRuleBeatsBothPolicies is the recording that replaced the
// placement option with the array's one rule (ROADMAP, "Placement"), at
// reduced scale: serial cold-cache queries, critical-path simulated seconds
// of the cold (adapting) pass and of the same queries again (warm,
// converged). Affinity wins cold passes and roundrobin warm ones; the rule
// must be within 3 % of the better one on every reading and ahead of both on
// at least one. Every number is deterministic.
func TestPlacementRuleBeatsBothPolicies(t *testing.T) {
	if raceEnabled {
		t.Skip("deterministic simulated-time recording; about 45 s per qvol under the race detector")
	}
	const n = 6
	data := datagen.GenerateDatasets(datagen.Config{Seed: 1, NumObjects: 20000}, n)
	// run replays w twice on a fresh engine over an array placed by policy
	// (nil: the rule) and returns the cold and warm pass times.
	run := func(devices, channels int, w workload.Workload, policy simdisk.PlacementPolicy, queried map[string]int) [2]time.Duration {
		dev := simdisk.NewStorage(simdisk.DefaultCostModel(), 1024, devices, channels, policy)
		o, err := New(dev, nil, geom.UnitBox(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i, objs := range data {
			raw, err := rawfile.Write(dev, fmt.Sprintf("ds%d.raw", i), objs[0].Dataset, objs)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.AddRaw(raw); err != nil {
				t.Fatal(err)
			}
		}
		var passes [2]time.Duration
		for p := range passes {
			dev.ResetClock()
			for _, q := range w.Queries {
				for _, ds := range q.Datasets {
					queried[rawfile.GroupName(ds)]++
				}
				dev.DropCaches()
				if _, err := o.Query(q.Range, q.Datasets); err != nil {
					t.Fatal(err)
				}
			}
			passes[p] = dev.Clock()
		}
		return passes
	}

	aheadOfBoth := 0
	for _, qvol := range []float64{1e-4, 1e-2} {
		w, err := workload.Generate(workload.Config{
			Seed: 7, NumQueries: 200, NumDatasets: n, DatasetsPerQuery: 3,
			QueryVolumeFrac: qvol, RangeDist: workload.RangeClustered,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range [][2]int{{2, 1}, {4, 1}, {2, 2}} {
			queried := map[string]int{}
			rule := run(topo[0], topo[1], w, nil, map[string]int{})
			affinity := run(topo[0], topo[1], w, affinityPlacement{queried}, queried)
			roundRobin := run(topo[0], topo[1], w, &roundRobinPlacement{}, map[string]int{})
			for p, pass := range []string{"cold", "warm"} {
				better := min(affinity[p], roundRobin[p])
				t.Logf("%dx%d qvol %g %s: rule %.3fs, affinity %.3fs, roundrobin %.3fs", topo[0], topo[1], qvol, pass,
					rule[p].Seconds(), affinity[p].Seconds(), roundRobin[p].Seconds())
				if float64(rule[p]) > 1.03*float64(better) {
					t.Errorf("%dx%d qvol %g %s: rule %v is more than 3 %% behind the better policy's %v",
						topo[0], topo[1], qvol, pass, rule[p], better)
				}
				if rule[p] < better {
					aheadOfBoth++
				}
			}
		}
	}
	if aheadOfBoth == 0 {
		t.Error("the rule is ahead of both policies on no reading")
	}
}
