package main

import (
	"fmt"
	"runtime"
	"time"

	"metablocking/internal/entity"
	"metablocking/internal/server"
)

// serveTraced is the traced run of serve. Both phases send arrivals from
// the preload snapshot at the nominal rate:
//
//  1. HTTP, untraced, for a quarter of the time: the reference for the
//     tracing overhead, the Go runtime counters and the generator's lag;
//  2. as many requests as the untraced run's nominal phase, alternating
//     between HTTP (a "server.http" span) and the in-process
//     Server.Resolve (a "server.resolve" span) on one schedule, with the
//     server's own counters read before and after.
//
// Then phase 2's arrival order (sorted by assigned ID) is replayed
// serially against standalone backends restored from the same snapshot:
// the single-index resolver, each replayed call a child of its request's
// span, so the HTTP requests minus the in-process ones give the codec,
// the in-process ones minus the replay the batching wait, and the replay
// the index work; then a disk-backed shard group, which prices the
// durable write path (shard, store, diskindex). Last comes the shard
// sweep.
func serveTraced(r *result, env *serveEnv, o options, replayDir string) error {
	nPlain := int(nominalRate * o.seconds.Seconds() / 4)
	n := nominalRequests(o.seconds)
	g0 := readGoStats()
	plain, err := env.phase(nominalRate, nPlain, phaseSpec{})
	if err != nil {
		return err
	}
	setGoMetrics(r, g0, readGoStats(), nPlain, 1)
	r.attempted += nPlain
	r.failed += plain.failures()
	r.set("loadgen.lag_p50_ms", median(ms(plain.lag)))
	r.set("loadgen.lag_p99_ms", percentile(ms(plain.lag), 99))

	tr := newTracer()
	if err := env.reload(); err != nil {
		return err
	}
	seg := env.segs[len(env.segs)-1]
	m0 := env.srv.Metrics().Snapshot()
	mixed, err := env.phase(nominalRate, n, phaseSpec{mixed: true, tr: tr})
	if err != nil {
		return err
	}
	m1 := env.srv.Metrics().Snapshot()
	var httpLat, inLat []time.Duration
	for i, d := range mixed.lat {
		switch {
		case mixed.errs[i] != nil:
		case i%2 == 1:
			inLat = append(inLat, d)
		default:
			httpLat = append(httpLat, d)
		}
	}

	ordered, err := inIDOrder(seg.first, seg.got)
	if err != nil {
		return fmt.Errorf("traced segment: %w", err)
	}
	arrivals := make([]entity.Profile, len(ordered))
	for i, s := range ordered {
		arrivals[i] = env.in.parsed[s.arrival]
	}
	parent := func(i int) int32 { return mixed.spans[ordered[i].arrival-mixed.base] }
	rep, err := replayIncremental(env.in.snap, arrivals, tr, "incremental.add", parent)
	if err != nil {
		return err
	}
	setIncMetrics(r, rep)
	onDisk := arrivals[:min(diskArrivals, len(arrivals))]
	disk, err := replayDisk(replayDir, env.in.snap, onDisk, runtime.NumCPU(), tr)
	if err != nil {
		return err
	}
	diskMetrics(r, disk, profileBytes(env.in.snap.Profiles)+profileBytes(onDisk))
	if err := sweepMetrics(r, env); err != nil {
		return err
	}

	httpMs, inMs, idxMs := median(ms(httpLat)), median(ms(inLat)), median(ms(rep.add))
	r.set("server.codec_ms", httpMs-inMs)
	r.set("server.wait_ms", inMs-idxMs)
	batches := m1.Counter(server.CtrBatches) - m0.Counter(server.CtrBatches)
	r.set("server.profiles_per_batch", ratio(float64(m1.Counter(server.CtrBatchedProfs)-m0.Counter(server.CtrBatchedProfs)), float64(batches)))
	rejected := m1.Counter(server.CtrRejectedFull) + m1.Counter(server.CtrRejectedDrain) -
		m0.Counter(server.CtrRejectedFull) - m0.Counter(server.CtrRejectedDrain)
	accepted := m1.Counter(server.CtrAccepted) - m0.Counter(server.CtrAccepted)
	r.set("server.rejected_share", ratio(float64(rejected), float64(rejected+accepted)))
	r.set("trace.overhead_share", httpMs/median(ms(plain.okLatencies()))-1)
	setSelfMetrics(r, tr, len(arrivals))

	r.note("where the time goes @serve (medians at %.0f rps, n=%d alternating HTTP and in-process, from each request's due time):", nominalRate, n)
	r.note("  HTTP round trip        %8.3f ms", httpMs)
	r.note("  in-process Resolve     %8.3f ms", inMs)
	r.note("  standalone index work  %8.3f ms", idxMs)
	r.note("  codec share %.1f%%  wait share %.1f%%  index share %.1f%%",
		100*ratio(httpMs-inMs, httpMs), 100*ratio(inMs-idxMs, httpMs), 100*ratio(idxMs, httpMs))
	r.note("  HTTP p99 %.3f ms (n=%d)", percentile(ms(httpLat), 99), len(httpLat))
	return o.writeTrace(tr)
}

// sweepArrivals is how many serve arrivals the shard sweep replays, and
// diskArrivals how many the disk-backed replay takes: enough for several
// seal and compaction cycles.
const (
	sweepArrivals = 1000
	diskArrivals  = 1000
)

// sweepMetrics replays the first serve arrivals, in order, through the
// single-index resolver and through shard groups of 1, 2 and 4 shards,
// and reports each group's cost per resolve above the single index's.
func sweepMetrics(r *result, env *serveEnv) error {
	arrivals := env.in.parsed[:sweepArrivals]
	points, err := shardSweep(env.in.snap, arrivals, []int{1, 2, 4})
	if err != nil {
		return err
	}
	base := points[0].total
	r.note("shard sweep (serial replay of %d serve arrivals, median µs per resolve):", len(arrivals))
	r.note("  %-8s %8s %8s %8s %8s %9s", "shards", "keys", "gather", "commit", "total", "overhead")
	for _, p := range points {
		total := p.total
		label := "index"
		if p.shards > 0 {
			label = fmt.Sprint(p.shards)
			r.set(fmt.Sprintf("shard.overhead_us_%d", p.shards), float64(total-base)/1e3)
		}
		r.note("  %-8s %8.1f %8.1f %8.1f %8.1f %9.1f", label,
			float64(p.keys)/1e3, float64(p.gather)/1e3, float64(p.commit)/1e3, float64(total)/1e3, float64(total-base)/1e3)
	}
	return nil
}

// diskMetrics reports the shard, store and diskindex layers from the
// disk-backed replay; userBytes is the profile data the group holds.
func diskMetrics(r *result, rep diskReplay, userBytes int64) {
	writes := float64(len(rep.resolve))
	d := rep.disk
	r.set("shard.gather_us", median(us(rep.gather)))
	r.set("shard.commit_us", median(us(diffs(rep.resolve, rep.warm))))
	r.set("store.wal_sync_ms", median(ms(rep.sync)))
	r.set("store.wal_syncs_per_write", ratio(float64(d.WalSyncs), writes))
	r.set("store.wal_bytes_per_write", ratio(float64(rep.walBytes), float64(rep.walWrites)))
	cp := ms(rep.checkpoint)
	tail, ok := tailPercentile(len(cp))
	tailMs := percentile(cp, tail)
	if !ok {
		tail, tailMs = 100, percentile(cp, 100)
	}
	r.set("diskindex.checkpoint_tail_ms", tailMs)
	r.set("diskindex.checkpoint_max_ms", percentile(cp, 100))
	r.set("diskindex.checkpoints", float64(len(cp)))
	r.set("diskindex.seals", float64(d.Seals))
	r.set("diskindex.compactions", float64(d.Compactions))
	r.set("diskindex.cache_hit_ratio", ratio(float64(d.CacheHits), float64(d.CacheHits+d.PageReads)))
	r.set("diskindex.page_reads_per_resolve", ratio(float64(d.PageReads), writes))
	r.set("diskindex.index_bytes", float64(rep.stored))
	r.set("diskindex.cache_bytes", float64(diskCache*rep.shards))
	r.set("diskindex.space_amp", ratio(float64(rep.stored), float64(userBytes)))
	r.note("disk replay: resolve %.3f ms (gather %.3f), WAL sync %.3f ms; checkpoint stalls (resolve plus the sync that waits for any compaction) p%g %.2f ms, max %.2f ms over %d of %d resolves",
		median(ms(rep.resolve)), median(ms(rep.gather)), median(ms(rep.sync)), tail, tailMs, percentile(cp, 100), len(cp), len(rep.resolve))
	r.note("disk replay: %d bytes under the directory against a %d-byte page cache (%d shards x %d); %d seals, %d compactions, cache hit ratio %.3f",
		rep.stored, diskCache*rep.shards, rep.shards, diskCache, d.Seals, d.Compactions, ratio(float64(d.CacheHits), float64(d.CacheHits+d.PageReads)))
}
