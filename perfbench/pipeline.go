package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"metablocking"
)

// pipelineConfig is the paper's offline pipeline: Token Blocking, Block
// Purging, Block Filtering r=0.8, JS weighting and Reciprocal WNP.
func pipelineConfig(workers int) metablocking.Pipeline {
	return metablocking.Pipeline{
		Blocking:    metablocking.TokenBlocking{},
		FilterRatio: 0.8,
		Scheme:      metablocking.JS,
		Algorithm:   metablocking.ReciprocalWNP,
		Workers:     workers,
	}
}

// stageLayer maps the pipeline's span-hook stages to layer span names.
var stageLayer = map[string]string{
	"blocking": "blocking.build",
	"purge":    "blockproc.purge",
	"filter":   "blockproc.filter",
	"graph":    "core.graph",
	"prune":    "core.prune",
}

// runPipeline is the pipeline workload: 17k profiles through the offline
// pipeline with one worker per CPU, run back to back for the measured
// time. Every run's pairs must equal a one-worker run made beforehand.
func runPipeline(ctx context.Context, o options) (*result, error) {
	r := newResult()
	var setups []float64
	var ds metablocking.Dataset
	for i := 0; i < setupRepeats; i++ {
		d, _ := timed(func() error { ds = generate(1.0, o.seed); return nil })
		setups = append(setups, d.Seconds())
	}
	r.set("setup_s", median(setups))
	coll, gt := ds.Collection, ds.GroundTruth

	ref, err := pipelineConfig(1).RunContext(ctx, coll)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	refPairs := ref.Pairs
	ref = nil
	p := pipelineConfig(runtime.NumCPU())
	check := func(res *metablocking.Result) {
		if !slices.Equal(res.Pairs, refPairs) {
			r.fail("pipeline: %d pairs differ from the one-worker run's %d", len(res.Pairs), len(refPairs))
		}
	}

	// measure runs the pipeline back to back for the given time (at
	// least three runs) and returns the wall time of each.
	var last *metablocking.Result
	measure := func(d time.Duration, opts func(run int) []metablocking.RunOption) ([]float64, error) {
		var walls []float64
		start := time.Now()
		for run := 0; run < 3 || time.Since(start) < d; run++ {
			t0 := time.Now()
			res, err := p.RunContext(ctx, coll, opts(run)...)
			wall := time.Since(t0)
			if err != nil {
				return nil, err
			}
			r.attempted++
			walls = append(walls, wall.Seconds())
			check(res)
			last = res
		}
		return walls, nil
	}
	none := func(int) []metablocking.RunOption { return nil }

	if !o.trace {
		walls, err := measure(o.seconds, none)
		if err != nil {
			return nil, err
		}
		r.set("p50_ms", median(walls)*1e3)
		r.set("throughput_per_s", float64(coll.Size())/median(walls))
		r.note("batch_run_s %.4f s (median of %d runs, slowest %.4f s; too few runs for a tail percentile)",
			median(walls), len(walls), slices.Max(walls))
		r.note("fail_ratio %d/%d", r.failed, r.attempted)
	} else {
		// Untraced first, then traced: the difference is the tracing
		// overhead.
		g0 := readGoStats()
		plain, err := measure(o.seconds/2, none)
		if err != nil {
			return nil, err
		}
		setGoMetrics(r, g0, readGoStats(), coll.Size()*len(plain), len(plain))
		tr := newTracer()
		stageCPU := make(map[string]time.Duration)
		traced, err := measure(o.seconds/2, func(run int) []metablocking.RunOption {
			return pipelineTraceOptions(tr, stageCPU, run)
		})
		if err != nil {
			return nil, err
		}
		if err := pipelineLayers(r, tr, stageCPU, last.Metrics, len(traced)); err != nil {
			return nil, err
		}
		r.set("trace.overhead_share", median(traced)/median(plain)-1)
		setSelfMetrics(r, tr, len(traced))
		if err := o.writeTrace(tr); err != nil {
			return nil, err
		}
	}

	rep := metablocking.Evaluate(last.Pairs, gt, 0)
	r.set("pc", rep.PC())
	r.set("pq", rep.PQ())
	refPairs = nil
	r.set("space_amp", liveHeapBytes()/float64(profileBytes(coll.Profiles)))
	runtime.KeepAlive(last)
	r.set("peak_rss_mb", peakRSSMB())
	return r, nil
}

// pipelineTraceOptions records one run as a root span with one child per
// stage via the pipeline's span hooks, adds the CPU time of each stage to
// cpu, and collects the run's counters in a metrics registry. The hooks
// fire on the calling goroutine, between the stages.
func pipelineTraceOptions(tr *tracer, cpu map[string]time.Duration, run int) []metablocking.RunOption {
	var (
		runStart   = time.Now()
		stageStart time.Time
		cpuStart   time.Duration
		stages     []span
	)
	start := func(string) {
		stageStart, cpuStart = time.Now(), cpuTime()
	}
	end := func(stage string, _ time.Duration) {
		now := time.Now()
		cpu[stage] += cpuTime() - cpuStart
		stages = append(stages, span{Name: stageLayer[stage], Start: stageStart.UnixNano(), End: now.UnixNano()})
		if stage == "prune" {
			// The last stage: record the run and its stages.
			root := tr.add("metablocking.run", -1, int64(run), runStart, now)
			for _, s := range stages {
				tr.add(s.Name, root, int64(run), time.Unix(0, s.Start), time.Unix(0, s.End))
			}
		}
	}
	return []metablocking.RunOption{
		metablocking.WithMetrics(metablocking.NewMetrics()),
		metablocking.WithSpanHooks(start, end),
	}
}

// pipelineLayers derives the blocking, blockproc and core metrics from
// the traced runs' spans, stage CPU times and the last run's counters.
func pipelineLayers(r *result, tr *tracer, cpu map[string]time.Duration, m metablocking.MetricsSnapshot, runs int) error {
	wall := make(map[string][]float64)
	tr.mu.Lock()
	for _, s := range tr.spans {
		wall[s.Name] = append(wall[s.Name], float64(s.End-s.Start)/1e9)
	}
	tr.mu.Unlock()
	blockCPU, pruneCPU := cpu["blocking"], cpu["prune"]
	if len(wall["core.prune"]) != runs {
		return fmt.Errorf("pipeline trace: %d prune spans for %d runs", len(wall["core.prune"]), runs)
	}
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	r.set("blocking.s", median(wall["blocking.build"]))
	r.set("blocking.cores", ratio(blockCPU.Seconds(), sum(wall["blocking.build"])))
	r.set("blocking.comparisons", float64(m.Counter("blocking.comparisons")))
	r.set("blockproc.purge_s", median(wall["blockproc.purge"]))
	r.set("blockproc.filter_s", median(wall["blockproc.filter"]))
	r.set("blockproc.kept_share", ratio(float64(m.Counter("filter.comparisons")), float64(m.Counter("blocking.comparisons"))))
	r.set("core.graph_s", median(wall["core.graph"]))
	r.set("core.prune_s", median(wall["core.prune"]))
	r.set("core.prune_cores", ratio(pruneCPU.Seconds(), sum(wall["core.prune"])))
	r.set("core.edges_weighted", float64(m.Counter("prune.edges_weighted")))
	r.set("core.pairs_per_edge", ratio(float64(m.Counter("prune.pairs")), float64(m.Counter("prune.edges_weighted"))))
	total := median(wall["metablocking.run"])
	r.note("where the time goes @pipeline (median of %d traced runs, %.3f s per run):", runs, total)
	for _, n := range []string{"blocking.build", "blockproc.purge", "blockproc.filter", "core.graph", "core.prune"} {
		r.note("  %-18s %8.1f ms  %5.1f%%", n, median(wall[n])*1e3, 100*ratio(median(wall[n]), total))
	}
	return nil
}
