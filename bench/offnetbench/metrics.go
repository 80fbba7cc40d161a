package main

// metric declares one number the benchmark reports. The tables below
// must match BENCHMARK.json name for name (TestSchema enforces it); the
// JSON file adds each end-to-end metric's regression bound.
type metric struct {
	Name, Unit, Better string

	// Moves and On name, for a per-layer metric, the end-to-end metric
	// and the workload a change to that layer should move first.
	Moves, On string
}

// Workload names, in the order a run of every workload executes them.
const (
	studyDisk   = "study-disk"
	inferMem    = "infer-mem"
	serveZipf   = "serve-zipf"
	serveReload = "serve-reload"
)

var workloads = []string{studyDisk, inferMem, serveZipf, serveReload}

// endToEnd is what a user of offnetscope sees. Every workload reports
// all of them, so each is defined per operation: one corpus record for
// the two study workloads, one HTTP request for the two serving ones.
// Wall and CPU time per operation are in "ref": multiples of what the
// workload's reference operation took in the same run (reference.go).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "wall_per_op", Unit: "ref", Better: "lower"},
	{Name: "cpu_per_op", Unit: "ref", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer comes from the traced replay (-trace 1), which walks the
// whole disk-to-socket path layer by layer on the run's inputs.
var perLayer = []metric{
	{"corpus.decode_s", "s", "lower", "wall_per_op", studyDisk},
	{"corpus.decode_cpu_s", "s", "lower", "cpu_per_op", studyDisk},
	{"corpus.records", "count", "higher", "wall_per_op", studyDisk},
	{"worldsim.rebuild_s", "s", "lower", "setup_s", inferMem},
	{"astopo.orgs_s", "s", "lower", "setup_s", inferMem},
	{"bgpsim.mapper_s", "s", "lower", "setup_s", inferMem},
	{"certmodel.verify_s", "s", "lower", "wall_per_op", inferMem},
	{"certmodel.chains", "count", "higher", "wall_per_op", inferMem},
	{"certmodel.valid_frac", "ratio", "higher", "wall_per_op", inferMem},
	{"certmodel.distinct_chain_frac", "ratio", "lower", "wall_per_op", inferMem},
	{"core.infer_s", "s", "lower", "wall_per_op", inferMem},
	{"core.infer_cpu_s", "s", "lower", "cpu_per_op", inferMem},
	{"core.validate_s", "s", "lower", "wall_per_op", inferMem},
	{"core.match_s", "s", "lower", "wall_per_op", inferMem},
	{"core.study_s", "s", "lower", "wall_per_op", inferMem},
	{"core.alloc_mb", "MB", "lower", "peak_rss_mb", inferMem},
	{"core.candidate_ips", "count", "higher", "wall_per_op", inferMem},
	{"core.confirmed_ips", "count", "higher", "wall_per_op", inferMem},
	{"core.confirm_frac", "ratio", "higher", "wall_per_op", inferMem},
	{"runstate.save_s", "s", "lower", "wall_per_op", studyDisk},
	{"runstate.saves", "count", "higher", "wall_per_op", studyDisk},
	{"footstore.build_s", "s", "lower", "wall_per_op", studyDisk},
	{"footstore.encode_s", "s", "lower", "wall_per_op", studyDisk},
	{"footstore.save_s", "s", "lower", "wall_per_op", studyDisk},
	{"footstore.kb", "KB", "lower", "setup_s", serveZipf},
	{"footstore.open_s", "s", "lower", "setup_s", serveZipf},
	{"footstore.lookup_ns", "ns", "lower", "cpu_per_op", serveZipf},
	{"offnetserve.validate_s", "s", "lower", "setup_s", serveZipf},
	{"offnetserve.handle_p50_us", "us", "lower", "wall_per_op", serveZipf},
	{"offnetserve.handle_p99_us", "us", "lower", "wall_per_op", serveZipf},
	{"offnetserve.cache_hit_frac", "ratio", "higher", "cpu_per_op", serveZipf},
	{"offnetserve.reload_visible_ms", "ms", "lower", "wall_per_op", serveReload},
	{"net.p50_us", "us", "lower", "wall_per_op", serveZipf},
	{"net.p99_us", "us", "lower", "wall_per_op", serveZipf},
	{"net.p999_us", "us", "lower", "wall_per_op", serveZipf},
	{"net.p99_us_hi", "us", "lower", "wall_per_op", serveZipf},
	{"net.samples", "count", "higher", "wall_per_op", serveZipf},
	{"net.overhead_p50_us", "us", "lower", "wall_per_op", serveZipf},
	{"driver.late_frac", "ratio", "lower", "wall_per_op", serveZipf},
	{"driver.cpu_s", "s", "lower", "cpu_per_op", serveZipf},
	{"trace.gap_frac", "ratio", "lower", "cpu_per_op", studyDisk},
}
