package main

// This file is the benchmark's declaration of what it measures: the five
// workloads, the end-to-end metrics with their regression bounds, and the
// per-layer metrics of the traced run. BENCHMARK.json at the repository root
// repeats the part the PR driver gates on; bench_test.go fails when the two
// disagree.

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the PR driver) call it a
	// regression. Per-layer metrics have none.
	bound float64
	// workloads lists the workloads that report the metric; nil means all
	// five.
	workloads []string
	// driver marks the end-to-end metrics BENCHMARK.json declares, which the
	// PR driver gates on; the others are gated by -compare alone. The
	// driver's contract has every run of every workload print every declared
	// metric, none may read 0, and each must repeat across ten seeds to
	// within its bound: so only all-workload metrics qualify, and of the
	// timings only the two that stayed under the 25 % cap in every campaign
	// run when the benchmark was defined (README, "Bounds and steadiness").
	driver bool
}

func (d metricDef) appliesTo(workload string) bool {
	if d.workloads == nil {
		return true
	}
	for _, w := range d.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	wlMem    = "mem-query"
	wlFile   = "file-query"
	wlServe  = "serve-mixed"
	wlIngest = "ingest-durable"
	wlShard  = "shard-mixed"
)

var (
	queryOnly = []string{wlMem, wlFile}
	writers   = []string{wlServe, wlIngest, wlShard}
	fileBound = []string{wlFile, wlIngest}
)

// endToEnd is what a user of the system sees. Bounds come from three
// campaigns of ten runs on ten seeds per workload: three times the widest
// interquartile spread seen, where the contract's cap of 25 % allows; every
// timing sits at the cap.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, driver: true},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25, driver: true},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_ops_per_s", unit: "1/s", better: "higher", bound: 0.25, driver: true},
	{name: "heap_bytes_per_object", unit: "B", better: "lower", bound: 0.05, driver: true},
	{name: "leaf_reads_per_query", unit: "count", better: "lower", bound: 0.05, driver: true},
	{name: "knn_p50_us", unit: "us", better: "lower", bound: 0.25, workloads: queryOnly},
	{name: "join_ms", unit: "ms", better: "lower", bound: 0.25, workloads: []string{wlMem}},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.25, workloads: writers},
	{name: "write_p95_us", unit: "us", better: "lower", bound: 0.25, workloads: writers},
	{name: "write_items_per_s", unit: "1/s", better: "higher", bound: 0.25, workloads: writers},
	// The byte count repeats exactly for a given seed; compare like seeds.
	{name: "file_bytes_per_object", unit: "B", better: "lower", bound: 0.01, workloads: fileBound},
	// Any increase is a regression; it reads 0 on a healthy run, so the
	// driver sees it as the result line's failed/attempted instead.
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0},
}

// contractEndToEnd is the subset of endToEnd BENCHMARK.json declares.
func contractEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.driver {
			out = append(out, d)
		}
	}
	return out
}

// perLayer is what the traced run reports: one entry per layer boundary the
// ladder or a decorator can reach from outside. "self" metrics are
// differences between adjacent rungs and may be negative. Which end-to-end
// metric each is expected to move, on which workload, is the README's
// interaction table.
var perLayer = []metricDef{
	// internal/rtree
	{name: "rtree.search_ns", unit: "ns", better: "lower"},
	{name: "rtree.knn_ns", unit: "ns", better: "lower"},
	{name: "rtree.leaf_reads_per_query", unit: "count", better: "lower"},
	{name: "rtree.dir_reads_per_query", unit: "count", better: "lower"},
	{name: "rtree.allocs_per_query", unit: "count", better: "lower"},
	{name: "rtree.bulkload_ns_per_object", unit: "ns", better: "lower"},
	{name: "rtree.insert_items_ns_per_item", unit: "ns", better: "lower"},
	{name: "rtree.node_writes_per_item", unit: "count", better: "lower"},
	// internal/clipindex + internal/core
	{name: "clipindex.search_ns", unit: "ns", better: "lower"},
	{name: "clipindex.self_ns", unit: "ns", better: "lower"},
	{name: "clipindex.leaf_reads_per_query", unit: "count", better: "lower"},
	{name: "clipindex.dir_reads_per_query", unit: "count", better: "lower"},
	{name: "clipindex.leaf_reads_saved_pct", unit: "%", better: "higher"},
	{name: "core.query_dead_ns", unit: "ns", better: "lower"},
	{name: "clipindex.clip_points_per_node", unit: "count", better: "higher"},
	{name: "clipindex.table_bytes_per_object", unit: "B", better: "lower"},
	{name: "clipindex.build_ns_per_object", unit: "ns", better: "lower"},
	{name: "clipindex.maintain_self_ns_per_item", unit: "ns", better: "lower"},
	{name: "clipindex.reclips_per_item", unit: "count", better: "lower"},
	// cbb (Tree/View) + internal/parallel
	{name: "cbb.view_self_ns", unit: "ns", better: "lower"},
	{name: "cbb.tree_self_ns", unit: "ns", better: "lower"},
	{name: "cbb.snapshot_acquire_ns", unit: "ns", better: "lower"},
	{name: "cbb.begin_ns", unit: "ns", better: "lower"},
	{name: "cbb.commit_ns", unit: "ns", better: "lower"},
	{name: "parallel.batch_ns_per_query", unit: "ns", better: "lower"},
	{name: "parallel.speedup_2w", unit: "ratio", better: "higher"},
	// shard*.go + internal/hilbert
	{name: "shard.fanout_self_ns", unit: "ns", better: "lower"},
	{name: "shard.view_self_ns", unit: "ns", better: "lower"},
	{name: "shard.snapshot_acquire_ns", unit: "ns", better: "lower"},
	{name: "shard.knn_ns", unit: "ns", better: "lower"},
	{name: "shard.batch_commit_ns", unit: "ns", better: "lower"},
	{name: "shard.splits", unit: "count", better: "lower"},
	{name: "shard.merges", unit: "count", better: "lower"},
	{name: "shard.len_max_over_mean", unit: "ratio", better: "lower"},
	{name: "hilbert.index_ns", unit: "ns", better: "lower"},
	// internal/join
	{name: "join.stt_ns_per_pair", unit: "ns", better: "lower"},
	{name: "join.stt_leaf_reads", unit: "count", better: "lower"},
	{name: "join.stt_leaf_reads_saved_pct", unit: "%", better: "higher"},
	{name: "join.inlj_ns_per_probe", unit: "ns", better: "lower"},
	// internal/snapshot
	{name: "snapshot.v1_bytes_per_object", unit: "B", better: "lower"},
	{name: "snapshot.v2_bytes_per_object", unit: "B", better: "lower"},
	{name: "snapshot.write_ns_per_object", unit: "ns", better: "lower"},
	{name: "snapshot.open_us", unit: "us", better: "lower"},
	// internal/storage
	{name: "storage.pager_v1_warm_ns", unit: "ns", better: "lower"},
	{name: "storage.pager_v2_warm_ns", unit: "ns", better: "lower"},
	{name: "storage.mmap_v2_warm_ns", unit: "ns", better: "lower"},
	{name: "storage.mmap_v2_cold_ns", unit: "ns", better: "lower"},
	{name: "storage.page_read_ns", unit: "ns", better: "lower"},
	{name: "storage.page_reads_per_query_cold", unit: "count", better: "lower"},
	{name: "storage.pool_hit_rate", unit: "ratio", better: "higher"},
	{name: "storage.heap_over_budget", unit: "ratio", better: "lower"},
	{name: "storage.flush_ns", unit: "ns", better: "lower"},
	{name: "storage.pages_written_per_commit", unit: "count", better: "lower"},
	{name: "storage.write_amp", unit: "ratio", better: "lower"},
	{name: "storage.filebacked_self_ns_per_item", unit: "ns", better: "lower"},
	// internal/server
	{name: "server.handler_direct_ns", unit: "ns", better: "lower"},
	{name: "server.handler_self_ns", unit: "ns", better: "lower"},
	{name: "server.coalesce_wait_ns", unit: "ns", better: "lower"},
	{name: "server.socket_self_ns", unit: "ns", better: "lower"},
	{name: "server.engine_search_ns", unit: "ns", better: "lower"},
	{name: "server.engine_snapshot_ns", unit: "ns", better: "lower"},
	{name: "server.engine_apply_ns", unit: "ns", better: "lower"},
	{name: "server.outside_engine_ns", unit: "ns", better: "lower"},
	{name: "server.allocs_per_request", unit: "count", better: "lower"},
	{name: "server.bytes_per_request", unit: "B", better: "lower"},
	{name: "server.coalesce_batch_mean", unit: "count", better: "higher"},
	{name: "server.shed_total", unit: "count", better: "lower"},
	{name: "server.side_p50_ns", unit: "ns", better: "lower"},
	// the instrument itself
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// workload is one named set of inputs and the driver that runs them.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json
	// setup generates the inputs, builds the engine and warms it up. The
	// harness calls it several times per run and reports the median as
	// setup_s, so everything it opens is released by the instance's close.
	setup func(rc *runCtx) (instance, error)
}

// workloads are fixed by name; later issues refer to them.
var workloads = []*workload{
	{name: wlMem, setup: setupMemQuery,
		why: "In-memory clipped tree, one goroutine, range + kNN + join: rtree kernels, clip admission and join do all the work; serving and storage changes must show nothing here."},
	{name: wlFile, setup: setupFileQuery,
		why: "3-D tree served from a v2 snapshot through mmap under a quarter-file pool budget: snapshot decode, page fault-in and heap residency sit under every query."},
	{name: wlServe, setup: setupServeMixed,
		why: "cbbserve's default stack on a loopback socket, 2 keep-alive clients, 90 % /search + 10 % /batch: coalescer, admission, JSON and net/http dominate, tree search is < 1 %."},
	{name: wlIngest, setup: setupIngestDurable,
		why: "File-backed tree taking durable 256-item commits (WAL + fsync each) beside a reader: COW, splits, clip maintenance and flush dominate; shows read gains that tax writers."},
	{name: wlShard, setup: setupShardMixed,
		why: "Skewed data on a 4-shard ShardedTree, reader beside cross-shard atomic batches: the only end-to-end guard on Hilbert routing, per-shard pins, commit lock and rebalance."},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
