// Command benchjson emits the repository's headline benchmark numbers as
// machine-readable JSON and gates a fresh run against a committed
// trajectory file (BENCH_PR13.json), failing on regressions.
//
// Two modes:
//
//	benchjson emit [-o out.json]
//	    runs the headline benchmarks in-process (testing.Benchmark) and
//	    writes {"schema":1,"benchmarks":{...}}: ns/op, B/op, allocs/op
//	    for the serial pipeline, the batched server resolve path and the
//	    out-of-core read path (cold and warm page cache), plus p50/p99
//	    request latency under concurrent load — for the synchronous
//	    resolve path, for the budget-aware interactive streaming mode
//	    (resolve_budget_interactive: per-stream p50/p99 and emitted
//	    comparisons per wall-clock millisecond), and for the disk-mode
//	    commit path under each write-ahead-log sync policy
//	    (commit_wal_off / commit_wal_interval / commit_wal_always —
//	    what the durability ladder costs per acknowledged write).
//
//	benchjson gate -baseline BENCH_PR13.json [-current fresh.json] [-ns]
//	    compares a current emit against the baseline's benchmarks
//	    section and exits non-zero when a gated metric regressed beyond
//	    its tolerance. allocs/op is always gated — it is
//	    hardware-independent, so it is the CI-safe signal. ns/op and the
//	    latency percentiles are gated only with -ns (same-machine runs);
//	    on shared CI hosts wall-clock is noise, allocation count is not.
//	    Per-benchmark tolerances embedded in the baseline file
//	    (alloc_tolerance, ns_tolerance) override the -threshold default.
//
// With no -current, gate runs emit itself and compares the live numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"metablocking"
	"metablocking/internal/budget"
	"metablocking/internal/core"
	"metablocking/internal/datagen"
	"metablocking/internal/diskindex"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/loadgen"
	"metablocking/internal/server"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// Bench is one benchmark's recorded metrics plus its optional gate
// tolerances (fractions: 0.10 = fail beyond +10%).
type Bench struct {
	NsPerOp          float64 `json:"ns_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	P50Ns            int64   `json:"p50_ns,omitempty"`
	P99Ns            int64   `json:"p99_ns,omitempty"`
	ProfilesPerBatch float64 `json:"profiles_per_batch,omitempty"`
	// ComparisonsPerMs is the progressive-serving throughput: ranked
	// candidates emitted to streaming clients per wall-clock millisecond
	// across the whole run (informational — wall-clock, never gated).
	ComparisonsPerMs float64 `json:"comparisons_per_ms,omitempty"`
	AllocTolerance   float64 `json:"alloc_tolerance,omitempty"`
	NsTolerance      float64 `json:"ns_tolerance,omitempty"`
}

// File is the trajectory artifact: the current numbers, and for the
// committed BENCH_PR8.json also the pre-PR baseline they improved on.
type File struct {
	Schema     int              `json:"schema"`
	PR         int              `json:"pr,omitempty"`
	Note       string           `json:"note,omitempty"`
	Go         string           `json:"go,omitempty"`
	Baseline   map[string]Bench `json:"baseline,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchjson emit|gate [flags]")
		os.Exit(2)
	}
	switch os.Args[1] {
	case "emit":
		fs := flag.NewFlagSet("emit", flag.ExitOnError)
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		f := File{Schema: 1, Go: runtime.Version(), Benchmarks: runAll()}
		writeJSON(*out, f)
	case "gate":
		fs := flag.NewFlagSet("gate", flag.ExitOnError)
		basePath := fs.String("baseline", "BENCH_PR13.json", "committed trajectory file")
		curPath := fs.String("current", "", "fresh emit to compare (default: run emit now)")
		threshold := fs.String("threshold", "0.10", "default regression tolerance (fraction)")
		gateNs := fs.Bool("ns", false, "also gate ns/op and latency percentiles (same-machine runs only)")
		fs.Parse(os.Args[2:])
		var thr float64
		if _, err := fmt.Sscanf(*threshold, "%f", &thr); err != nil || thr <= 0 {
			fatalf("bad -threshold %q", *threshold)
		}
		base := readJSON(*basePath)
		var cur File
		if *curPath != "" {
			cur = readJSON(*curPath)
		} else {
			cur = File{Schema: 1, Benchmarks: runAll()}
		}
		if !gate(base, cur, thr, *gateNs) {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown mode %q\n", os.Args[1])
		os.Exit(2)
	}
}

func runAll() map[string]Bench {
	out := make(map[string]Bench)
	fmt.Fprintln(os.Stderr, "benchjson: running pipeline_workers1 ...")
	out["pipeline_workers1"] = benchPipeline()
	fmt.Fprintln(os.Stderr, "benchjson: running server_resolve ...")
	out["server_resolve"] = benchServerResolve(1)
	for _, shards := range []int{4, 16} {
		name := fmt.Sprintf("server_resolve_shards%d", shards)
		fmt.Fprintln(os.Stderr, "benchjson: running "+name+" ...")
		out[name] = benchServerResolve(shards)
	}
	fmt.Fprintln(os.Stderr, "benchjson: running server_latency ...")
	out["server_latency"] = benchServerLatency()
	fmt.Fprintln(os.Stderr, "benchjson: running resolve_budget_interactive ...")
	out["resolve_budget_interactive"] = benchBudgetStream()
	fmt.Fprintln(os.Stderr, "benchjson: running resolve_disk_cold ...")
	out["resolve_disk_cold"] = benchResolveDisk(1)
	fmt.Fprintln(os.Stderr, "benchjson: running resolve_disk_warm ...")
	out["resolve_disk_warm"] = benchResolveDisk(8 << 20)
	for _, policy := range []string{server.WALSyncOff, server.WALSyncInterval, server.WALSyncAlways} {
		name := "commit_wal_" + policy
		fmt.Fprintln(os.Stderr, "benchjson: running "+name+" ...")
		out[name] = benchCommit(policy)
	}
	return out
}

// benchCommit prices the disk-mode commit path under one WAL sync
// policy: a single sequential client resolving against a disk-backed
// server, so each op is one acknowledged write including its append
// and — under "always" — its own group-commit fsync barrier (a batch
// of one: the worst case; concurrent load amortizes the barrier over
// the arrivals queued during the previous flush). The memtable budget
// is high enough that
// nothing checkpoints, isolating the commit cost from seal cost.
func benchCommit(policy string) Bench {
	profiles := benchProfiles(1000)
	root, err := os.MkdirTemp("", "benchjson-wal")
	if err != nil {
		fatalf("commit bench: %v", err)
	}
	defer os.RemoveAll(root)
	s, err := server.New(server.Config{
		Resolver:   incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:   64,
		QueueDepth: 8192,
		DiskDir:    root,
		WALSync:    policy,
	})
	if err != nil {
		fatalf("commit bench: %v", err)
	}
	defer s.Close()

	var durs []time.Duration
	r := testing.Benchmark(func(b *testing.B) {
		durs = make([]time.Duration, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := s.Resolve(context.Background(), profiles[i%len(profiles)]); err != nil {
				fatalf("commit bench: resolve: %v", err)
			}
			durs = append(durs, time.Since(start))
		}
	})
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out := fromResult(r)
	if len(durs) > 0 {
		pct := func(p float64) int64 { return durs[int(p*float64(len(durs)-1))].Nanoseconds() }
		out.P50Ns = pct(0.50)
		out.P99Ns = pct(0.99)
	}
	return out
}

// benchPipeline mirrors BenchmarkParallelPipeline/workers=1: the full
// serial pipeline (Token Blocking → purging → filtering r=0.8 → JS +
// ReciprocalWNP pruning) on the D2D dataset at scale 0.5.
func benchPipeline() Bench {
	ds := datagen.D2D(0.5)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := metablocking.Pipeline{
				FilterRatio: 0.8,
				Scheme:      metablocking.JS,
				Algorithm:   metablocking.ReciprocalWNP,
				Workers:     1,
			}.Run(ds.Collection)
			if err != nil {
				fatalf("pipeline: %v", err)
			}
			if len(res.Pairs) == 0 {
				fatalf("pipeline retained nothing")
			}
		}
	})
	return fromResult(r)
}

// benchServerResolve mirrors BenchmarkServerResolve(Shards): the batched
// resolve path end to end with concurrent submitters so batches
// coalesce, serving either the monolithic index (shards == 1) or the
// scatter-gather coordinator.
func benchServerResolve(shards int) Bench {
	profiles := benchProfiles(1000)
	s, err := server.New(server.Config{
		Resolver:   incremental.Config{Scheme: core.JS, K: 10},
		Shards:     shards,
		MaxBatch:   64,
		QueueDepth: 8192,
	})
	if err != nil {
		fatalf("server: %v", err)
	}
	defer s.Close()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := s.Resolve(context.Background(), profiles[i%len(profiles)]); err != nil {
					fatalf("resolve: %v", err)
				}
				i++
			}
		})
	})
	out := fromResult(r)
	if batches := s.Metrics().Counter(server.CtrBatches).Value(); batches > 0 {
		out.ProfilesPerBatch = float64(s.Metrics().Counter(server.CtrBatchedProfs).Value()) / float64(batches)
	}
	return out
}

// benchServerLatency measures per-request wall-clock latency under
// concurrent load (8 clients, fresh server) and reports p50/p99.
func benchServerLatency() Bench {
	const clients, perClient = 8, 500
	profiles := benchProfiles(1000)
	s, err := server.New(server.Config{
		Resolver:   incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:   64,
		QueueDepth: 8192,
	})
	if err != nil {
		fatalf("server: %v", err)
	}
	defer s.Close()

	durs := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ds := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				p := profiles[(c*perClient+i)%len(profiles)]
				start := time.Now()
				if _, err := s.Resolve(context.Background(), p); err != nil {
					fatalf("resolve: %v", err)
				}
				ds = append(ds, time.Since(start))
			}
			durs[c] = ds
		}(c)
	}
	wg.Wait()
	var all []time.Duration
	for _, ds := range durs {
		all = append(all, ds...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		i := int(p * float64(len(all)-1))
		return all[i].Nanoseconds()
	}
	return Bench{P50Ns: pct(0.50), P99Ns: pct(0.99)}
}

// benchBudgetStream measures the budget-aware progressive path end to
// end over HTTP: interactive-tier NDJSON streams (default 250ms tier
// budget, 16-candidate frames) driven by the mixed-tier load generator
// with every request on the interactive tier. Reported are per-stream
// wall-clock p50/p99 — the latency a budget-bound client observes from
// POST to terminal frame — and comparisons-per-ms, the rate at which
// ranked candidates cross the wire across the whole run.
func benchBudgetStream() Bench {
	const clients, requests = 8, 2000
	profiles := benchProfiles(1000)
	s, err := server.New(server.Config{
		Resolver:   incremental.Config{Scheme: core.JS, K: 10},
		MaxBatch:   64,
		QueueDepth: 8192,
		Tiers: []budget.Tier{
			{Name: budget.TierInteractive, Slots: 64, DefaultBudget: 250 * time.Millisecond},
			{Name: budget.TierBatch, Slots: 8, DefaultBudget: 5 * time.Second},
		},
		StreamBatch: 16,
	})
	if err != nil {
		fatalf("server: %v", err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	rep := loadgen.RunMixed(loadgen.HTTPStreamer(ts.URL, ts.Client()), profiles, loadgen.MixedOptions{
		Options:    loadgen.Options{Clients: clients, Requests: requests},
		BatchRatio: 0, // headline row is the interactive tier
	})
	elapsed := time.Since(start)
	if len(rep.Errors) > 0 {
		fatalf("budget stream: %v", rep.Errors[0])
	}
	if rep.Interactive.Rejected > 0 {
		fatalf("budget stream: %d interactive requests shed (tier slots misconfigured)", rep.Interactive.Rejected)
	}
	emitted := s.Metrics().Counter(budget.CtrComparisons).Value()
	return Bench{
		P50Ns:            rep.Interactive.P50.Nanoseconds(),
		P99Ns:            rep.Interactive.P99.Nanoseconds(),
		ComparisonsPerMs: float64(emitted) / (float64(elapsed.Nanoseconds()) / 1e6),
	}
}

// benchResolveDisk measures the out-of-core read path: 1000 profiles
// sealed into five delta segments (compaction disabled so the gather
// fans across a realistic LSM depth), then read-only Peek resolves
// through the shard coordinator. cacheBytes picks the variant: 1 byte
// evicts almost every posting page between operations so each Peek
// re-reads and re-verifies pages from disk (cold); 8 MiB holds the whole
// working set after the first pass (warm) — the steady state a serving
// replica lives in, where the disk index must cost no more allocations
// than the page-cache hits themselves.
func benchResolveDisk(cacheBytes int) Bench {
	profiles := benchProfiles(1000)
	rcfg := incremental.Config{Scheme: core.JS, K: 10}
	root, err := os.MkdirTemp("", "benchjson-disk")
	if err != nil {
		fatalf("disk bench: %v", err)
	}
	defer os.RemoveAll(root)

	open := func() *shard.Group {
		layout, err := store.RecoverDiskDir(root, 1)
		if err != nil {
			fatalf("disk bench: recover: %v", err)
		}
		parts := make([]*diskindex.Partition, layout.Shards)
		for k, state := range layout.Shard {
			parts[k], err = diskindex.Open(diskindex.Options{
				Config:       rcfg,
				Shards:       layout.Shards,
				Index:        k,
				State:        state,
				Checkpoint:   layout.Checkpoint,
				Size:         layout.Size,
				CacheBytes:   cacheBytes,
				CompactAfter: 64,
			})
			if err != nil {
				fatalf("disk bench: open: %v", err)
			}
		}
		blockSize := make(map[string]int)
		for _, p := range parts {
			p.AddBlockCounts(blockSize)
		}
		g, err := shard.Restored(shard.Config{
			Resolver:   rcfg,
			Shards:     layout.Shards,
			Backends:   func(k int) (shard.Backend, error) { return parts[k], nil },
			Checkpoint: layout.MaxCheckpoint,
		}, layout.Size, blockSize)
		if err != nil {
			fatalf("disk bench: restore: %v", err)
		}
		return g
	}

	g := open()
	defer func() { g.Close() }()
	for i, p := range profiles {
		if _, err := g.Resolve(p); err != nil {
			fatalf("disk bench: resolve: %v", err)
		}
		if (i+1)%200 == 0 {
			if err := g.Checkpoint(); err != nil {
				fatalf("disk bench: checkpoint: %v", err)
			}
		}
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for i = 0; i < b.N; i++ {
			if _, err := g.Peek(profiles[i%len(profiles)]); err != nil {
				fatalf("disk bench: peek: %v", err)
			}
		}
	})
	return fromResult(r)
}

func benchProfiles(n int) []entity.Profile {
	ds := datagen.D1D(0.1)
	if len(ds.Collection.Profiles) < n {
		fatalf("dataset has %d profiles, need %d", len(ds.Collection.Profiles), n)
	}
	return ds.Collection.Profiles[:n]
}

func fromResult(r testing.BenchmarkResult) Bench {
	return Bench{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// gate compares current against baseline and reports every gated metric.
// It returns false when any metric regressed beyond its tolerance.
func gate(base, cur File, defThr float64, gateNs bool) bool {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	check := func(name, metric string, baseV, curV, tol float64, gated bool) {
		if baseV <= 0 {
			return
		}
		delta := (curV - baseV) / baseV
		status := "info"
		if gated {
			status = "ok"
			if delta > tol {
				status = "FAIL"
				ok = false
			}
		}
		fmt.Printf("%-22s %-18s base=%.0f cur=%.0f delta=%+.1f%% tol=%.0f%% [%s]\n",
			name, metric, baseV, curV, 100*delta, 100*tol, status)
	}
	for _, name := range names {
		b := base.Benchmarks[name]
		c, present := cur.Benchmarks[name]
		if !present {
			fmt.Printf("%-22s MISSING from current run [FAIL]\n", name)
			ok = false
			continue
		}
		allocTol, nsTol := b.AllocTolerance, b.NsTolerance
		if allocTol == 0 {
			allocTol = defThr
		}
		if nsTol == 0 {
			nsTol = defThr
		}
		check(name, "allocs/op", float64(b.AllocsPerOp), float64(c.AllocsPerOp), allocTol, true)
		check(name, "ns/op", b.NsPerOp, c.NsPerOp, nsTol, gateNs)
		check(name, "p50_ns", float64(b.P50Ns), float64(c.P50Ns), nsTol, gateNs)
		check(name, "p99_ns", float64(b.P99Ns), float64(c.P99Ns), nsTol, gateNs)
		// Throughput runs the other way (higher is better) and is pure
		// wall-clock, so it is informational at every gating level.
		check(name, "cmp/ms", b.ComparisonsPerMs, c.ComparisonsPerMs, nsTol, false)
	}
	if !ok {
		fmt.Println("benchjson: REGRESSION detected")
	} else {
		fmt.Println("benchjson: gate passed")
	}
	return ok
}

func writeJSON(path string, f File) {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if path == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("write %s: %v", path, err)
	}
}

func readJSON(path string) File {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("read: %v", err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fatalf("parse %s: %v", path, err)
	}
	if f.Schema != 1 {
		fatalf("%s: unsupported schema %d", path, f.Schema)
	}
	return f
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
