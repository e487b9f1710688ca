package bench

// TrajectoryPoint is one recorded measurement of a performance trajectory:
// BENCH_parallel.json and BENCH_channels.json are arrays of these, which
// `odyssey-bench -experiment validate` re-checks.
type TrajectoryPoint struct {
	// Name identifies the experiment (e.g. "parallel-query").
	Name string `json:"name"`
	// Workers is the pool parallelism (0 = serial baseline).
	Workers int `json:"workers"`
	// Queries is the workload size.
	Queries int `json:"queries"`
	// WallSeconds is measured wall-clock time for the workload.
	WallSeconds float64 `json:"wall_seconds"`
	// SimSeconds is the aggregate simulated disk time charged.
	SimSeconds float64 `json:"sim_seconds"`
	// QueriesPerSecond is wall-clock throughput.
	QueriesPerSecond float64 `json:"queries_per_second"`
	// SpeedupVsSerial is wall-clock throughput relative to the serial
	// baseline of the same run (1.0 for the baseline itself; omitted for
	// series that have no serial baseline, e.g. the all-pooled
	// channel-scaling sweep).
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
	// Devices and Channels record the storage topology of the point (both
	// omitted for the original single-device single-channel series).
	Devices  int `json:"devices,omitempty"`
	Channels int `json:"channels,omitempty"`
	// SimSpeedupVsBase and WallSpeedupVsBase compare this point against the
	// series' single-channel single-device point *at the same worker
	// count*: how much the topology alone shrinks simulated time and wall
	// time (0 when the series has no topology baseline).
	SimSpeedupVsBase  float64 `json:"sim_speedup_vs_base,omitempty"`
	WallSpeedupVsBase float64 `json:"wall_speedup_vs_base,omitempty"`
}
