package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef is one metric of BENCHMARK.json: its name, unit and which
// direction is better. End-to-end metrics also carry the bound by which
// the median may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (README.md gives the per-workload
// definition), and none can read 0 on a working run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "pc", Unit: "ratio", Better: "higher", Bound: 0.1},
	{Name: "pq", Unit: "ratio", Better: "higher", Bound: 0.1},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer lists the traced run's per-layer metrics. A layer a workload
// leaves idle reports 0.
var perLayer = []metricDef{
	// blocking: the pipeline's first stage.
	{Name: "blocking.s", Unit: "s"},
	{Name: "blocking.cores", Unit: "cores"},
	{Name: "blocking.comparisons", Unit: "count"},
	// blockproc: Block Purging and Block Filtering.
	{Name: "blockproc.purge_s", Unit: "s"},
	{Name: "blockproc.filter_s", Unit: "s"},
	{Name: "blockproc.kept_share", Unit: "ratio"},
	// core: blocking graph and pruning.
	{Name: "core.graph_s", Unit: "s"},
	{Name: "core.prune_s", Unit: "s"},
	{Name: "core.prune_cores", Unit: "cores"},
	{Name: "core.edges_weighted", Unit: "count"},
	{Name: "core.pairs_per_edge", Unit: "ratio"},
	// incremental: the single-index resolver (the serve replay).
	{Name: "incremental.keys_us", Unit: "us"},
	{Name: "incremental.gather_us", Unit: "us"},
	{Name: "incremental.commit_us", Unit: "us"},
	{Name: "incremental.weighed_per_resolve", Unit: "count"},
	{Name: "incremental.cands_per_weighed", Unit: "ratio"},
	{Name: "incremental.near_cap_share", Unit: "ratio"},
	// server: the HTTP front end, admission and the batcher.
	{Name: "server.codec_ms", Unit: "ms"},
	{Name: "server.wait_ms", Unit: "ms"},
	{Name: "server.profiles_per_batch", Unit: "count"},
	{Name: "server.rejected_share", Unit: "ratio"},
	// shard: the scatter-gather coordinator (disk replay and sweep).
	{Name: "shard.gather_us", Unit: "us"},
	{Name: "shard.commit_us", Unit: "us"},
	{Name: "shard.overhead_us_1", Unit: "us"},
	{Name: "shard.overhead_us_2", Unit: "us"},
	{Name: "shard.overhead_us_4", Unit: "us"},
	// store: the write-ahead log (disk replay).
	{Name: "store.wal_sync_ms", Unit: "ms"},
	{Name: "store.wal_syncs_per_write", Unit: "ratio"},
	{Name: "store.wal_bytes_per_write", Unit: "bytes"},
	// diskindex: memtable, sealed segments, page cache (disk replay).
	{Name: "diskindex.checkpoint_tail_ms", Unit: "ms"},
	{Name: "diskindex.checkpoint_max_ms", Unit: "ms"},
	{Name: "diskindex.checkpoints", Unit: "count"},
	{Name: "diskindex.seals", Unit: "count"},
	{Name: "diskindex.compactions", Unit: "count"},
	{Name: "diskindex.cache_hit_ratio", Unit: "ratio"},
	{Name: "diskindex.page_reads_per_resolve", Unit: "count"},
	{Name: "diskindex.index_bytes", Unit: "bytes"},
	{Name: "diskindex.cache_bytes", Unit: "bytes"},
	{Name: "diskindex.space_amp", Unit: "ratio"},
	// Go runtime, every workload.
	{Name: "go.allocs_per_resolve", Unit: "count"},
	{Name: "go.alloc_mb_per_run", Unit: "MB"},
	{Name: "go.gc_cpu_share", Unit: "ratio"},
	// The open-loop load generator: how late it sent.
	{Name: "loadgen.lag_p50_ms", Unit: "ms"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms"},
	// Self time per layer, per operation (a pipeline run or a resolve).
	{Name: "self.metablocking_ms", Unit: "ms"},
	{Name: "self.blocking_ms", Unit: "ms"},
	{Name: "self.blockproc_ms", Unit: "ms"},
	{Name: "self.core_ms", Unit: "ms"},
	{Name: "self.incremental_ms", Unit: "ms"},
	{Name: "self.shard_ms", Unit: "ms"},
	{Name: "self.store_ms", Unit: "ms"},
	{Name: "self.diskindex_ms", Unit: "ms"},
	{Name: "self.server_ms", Unit: "ms"},
	// The tracing itself.
	{Name: "trace.overhead_share", Unit: "ratio"},
	{Name: "trace.spans", Unit: "count"},
}

func init() {
	for i := range perLayer {
		perLayer[i].Better = "lower"
	}
	for _, name := range []string{
		"blockproc.kept_share", "core.pairs_per_edge", "incremental.cands_per_weighed",
		"server.profiles_per_batch", "diskindex.cache_hit_ratio",
	} {
		for i := range perLayer {
			if perLayer[i].Name == name {
				perLayer[i].Better = "higher"
			}
		}
	}
}

// The grammar BENCHMARK.json imposes on names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs validates a metric list against the grammar and a count
// limit, and that no name is used twice.
func checkDefs(defs []metricDef, limit int) error {
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1 to %d", len(defs), limit)
	}
	seen := make(map[string]bool)
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q breaks the grammar", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the grammar", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// result is one run's outcome: the correctness verdict, the operation
// counts and the metrics by name.
type result struct {
	attempted, failed int
	// problems lists every failed correctness check; empty means correct.
	problems []string
	values   map[string]float64
	// report holds human-readable lines for standard error: per-workload
	// metric names, sample counts, and the where-the-time-goes tables.
	report []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit writes the result as the final JSON line: every metric of defs,
// with 0 for any the workload did not set. A non-finite value is a bug
// in the benchmark and is reported as a failed check.
func (r *result) emit(w io.Writer, defs []metricDef) error {
	line := resultLine{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if line.Attempted < 1 {
		r.fail("no operation attempted")
		line.Attempted = 1
	}
	for _, d := range defs {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.Name, v)
			v = 0
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line.Correct = len(r.problems) == 0
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// sortedNames returns the keys of a value map in order, for reports.
func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
