package cluster

import (
	"fmt"
	"sort"

	odyssey "spaceodyssey"
)

// placement maps datasets to their replica shard sets. Replicas are laid
// out ring-style — dataset d with replication r lives on shards
// (d mod N), (d+1 mod N), ..., (d+r-1 mod N) — so consecutive datasets
// spread over all shards and every replica set is a contiguous arc of the
// ring. Datasets with equal (d mod N, r) share an identical replica set,
// which is what makes group failover well-defined: every candidate shard
// of a fan-out group hosts every dataset of the group.
type placement struct {
	shards int
	// replicas maps each registered dataset to its ordered replica shard
	// list (primary first). Guarded by the router's mu.
	replicas map[odyssey.DatasetID][]int
}

func newPlacement(shards int) *placement {
	return &placement{shards: shards, replicas: make(map[odyssey.DatasetID][]int)}
}

// group is one fan-out unit of a query: the datasets sharing a replica
// set, and that set (primary first).
type group struct {
	datasets []odyssey.DatasetID
	replicas []int
}

// groups splits a query's dataset list into fan-out groups keyed by
// replica set, preserving first-appearance order (deterministic for a
// given query). Unknown datasets error — the single-Explorer contract.
func (p *placement) groups(datasets []odyssey.DatasetID) ([]group, error) {
	var out []group
	index := make(map[string]int)
	for _, ds := range datasets {
		set, ok := p.replicas[ds]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown dataset %d", ds)
		}
		key := fmt.Sprint(set)
		gi, seen := index[key]
		if !seen {
			gi = len(out)
			index[key] = gi
			out = append(out, group{replicas: set})
		}
		out[gi].datasets = append(out[gi].datasets, ds)
	}
	return out, nil
}

// sortObjects orders a merged result set deterministically by
// (dataset, id): the fan-out's concatenation order must never show through
// to callers, whichever shards happened to answer first.
func sortObjects(objs []odyssey.Object) {
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].Dataset != objs[j].Dataset {
			return objs[i].Dataset < objs[j].Dataset
		}
		return objs[i].ID < objs[j].ID
	})
}
