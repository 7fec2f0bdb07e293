package main

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"metablocking/internal/diskindex"
	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/shard"
	"metablocking/internal/store"
)

// answer is one resolve reply: the assigned ID and the candidates in
// rank order.
type answer struct {
	id    int
	cands []incremental.Candidate
}

// sameAnswer requires two answers to be bit-identical: same ID, same
// candidates in the same order with the same weight bits.
func sameAnswer(want, got answer) error {
	if want.id != got.id {
		return fmt.Errorf("id %d, want %d", got.id, want.id)
	}
	if len(want.cands) != len(got.cands) {
		return fmt.Errorf("%d candidates, want %d", len(got.cands), len(want.cands))
	}
	for j, w := range want.cands {
		g := got.cands[j]
		if g.ID != w.ID || math.Float64bits(g.Weight) != math.Float64bits(w.Weight) {
			return fmt.Errorf("candidate %d is (%d, %v), want (%d, %v)", j, g.ID, g.Weight, w.ID, w.Weight)
		}
	}
	return nil
}

// replayCheck replays the arrivals serially through a fresh resolver
// restored from snap and requires each answer to be bit-identical to the
// one observed: arrivals[i] must have received got[i].
func replayCheck(snap *incremental.Snapshot, arrivals []entity.Profile, got []answer) error {
	if len(arrivals) != len(got) {
		return fmt.Errorf("replay: %d arrivals for %d answers", len(arrivals), len(got))
	}
	r, err := incremental.FromSnapshot(snap)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for i, p := range arrivals {
		id, cands := r.Add(p)
		if err := sameAnswer(answer{id: int(id), cands: cands}, got[i]); err != nil {
			return fmt.Errorf("replay: arrival %d: %w", i, err)
		}
	}
	return nil
}

// served is one request of an open-loop segment that got an answer.
type served struct {
	arrival int // index into serveInput.parsed
	ans     answer
}

// inIDOrder sorts a segment's answers by assigned ID, which is the order
// the index saw the arrivals in, and requires the IDs to run without a
// gap from first.
func inIDOrder(first int, got []served) ([]served, error) {
	out := append([]served(nil), got...)
	sort.Slice(out, func(i, j int) bool { return out[i].ans.id < out[j].ans.id })
	for i, s := range out {
		if s.ans.id != first+i {
			return nil, fmt.Errorf("assigned ids have a gap: position %d holds id %d, want %d", i, s.ans.id, first+i)
		}
	}
	return out, nil
}

// incReplay is a serial replay through a standalone resolver, timed per
// public call. gather is a first Peek; warm a second one, which sees the
// caches the Add that follows sees, so commit cost is add minus warm.
type incReplay struct {
	keys, gather, warm, add []time.Duration
	weighed, cands          int
	nearCap                 int
}

// replayIncremental replays the arrivals through a resolver restored
// from snap, timing Keyer.Keys, Peek (twice) and Add for each. It
// also counts the arrivals that key into a block within 10% of the cap.
// Spans go to tr when it is non-nil: the Add span is named addName and
// parented by parent(i); the Keys and Peek probes are roots.
func replayIncremental(snap *incremental.Snapshot, arrivals []entity.Profile, tr *tracer, addName string, parent func(i int) int32) (incReplay, error) {
	r, err := incremental.FromSnapshot(snap)
	if err != nil {
		return incReplay{}, err
	}
	capSize := snap.Config.MaxBlockSize
	size := make(map[string]int, len(snap.Blocks))
	for k, m := range snap.Blocks {
		size[k] = len(m)
	}
	ky := incremental.Keyer{MinTokenLength: snap.Config.MinTokenLength}
	out := incReplay{
		keys:   make([]time.Duration, len(arrivals)),
		gather: make([]time.Duration, len(arrivals)),
		warm:   make([]time.Duration, len(arrivals)),
		add:    make([]time.Duration, len(arrivals)),
	}
	for i, p := range arrivals {
		t0 := time.Now()
		keys := ky.Keys(p)
		t1 := time.Now()
		_, err1 := r.Peek(p)
		tw := time.Now()
		_, err2 := r.Peek(p)
		t2 := time.Now()
		if err := errors.Join(err1, err2); err != nil {
			return out, err
		}
		_, cands := r.Add(p)
		t3 := time.Now()
		out.keys[i], out.gather[i], out.warm[i], out.add[i] = t1.Sub(t0), tw.Sub(t1), t2.Sub(tw), t3.Sub(t2)
		out.weighed += r.LastWeighed()
		out.cands += len(cands)
		near := false
		for _, k := range keys {
			n := size[k]
			if n*10 >= capSize*9 && n <= capSize {
				near = true
			}
			size[k] = n + 1
		}
		if near {
			out.nearCap++
		}
		if tr != nil {
			tr.add("probe.keys", -1, int64(i), t0, t1)
			tr.add("probe.gather", -1, int64(i), t1, tw)
			tr.add("probe.gather_warm", -1, int64(i), tw, t2)
			tr.add(addName, parent(i), int64(i), t2, t3)
		}
	}
	return out, nil
}

// setIncMetrics reports the incremental layer from a replay.
func setIncMetrics(r *result, rep incReplay) {
	n := float64(len(rep.add))
	r.set("incremental.keys_us", median(us(rep.keys)))
	r.set("incremental.gather_us", median(us(rep.gather)))
	r.set("incremental.commit_us", median(us(diffs(rep.add, rep.warm))))
	r.set("incremental.weighed_per_resolve", ratio(float64(rep.weighed), n))
	r.set("incremental.cands_per_weighed", ratio(float64(rep.cands), float64(rep.weighed)))
	r.set("incremental.near_cap_share", ratio(float64(rep.nearCap), n))
}

// diffs returns a[i]-b[i] for each i: per-call differences, whose median
// is steadier than the difference of two medians.
func diffs(a, b []time.Duration) []time.Duration {
	out := make([]time.Duration, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// walSample is how many writes the disk replay makes between two readings
// of the logs' sizes.
const walSample = 25

// sweepBlock is how many consecutive arrivals one backend of the shard
// sweep takes before the next backend's turn.
const sweepBlock = 100

// sweepPoint is one shard count's replay cost per resolve, by stage:
// medians over the arrivals. total is the median of gather plus commit.
type sweepPoint struct {
	shards                      int // 0 is the single-index resolver
	keys, gather, commit, total time.Duration
}

// shardSweep replays the arrivals through the single-index resolver and
// through in-memory shard groups of each count, timing Keys, Peek and
// Resolve (commit is Resolve minus a warm second Peek). The backends
// take turns on blocks of sweepBlock arrivals, so a drift in the host's
// speed affects them alike while each block still runs with warm caches.
func shardSweep(snap *incremental.Snapshot, arrivals []entity.Profile, counts []int) ([]sweepPoint, error) {
	type backend struct {
		shards                     int
		index                      incremental.Index
		ky                         incremental.Keyer
		keys, gather, warm, commit []time.Duration
	}
	mono, err := incremental.FromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	backends := []*backend{{index: mono}}
	defer func() {
		for _, b := range backends {
			b.index.Close()
		}
	}()
	for _, n := range counts {
		g, err := shard.FromSnapshot(snap, shard.Config{Shards: n})
		if err != nil {
			return nil, err
		}
		backends = append(backends, &backend{shards: n, index: g})
	}
	for lo := 0; lo < len(arrivals); lo += sweepBlock {
		block := arrivals[lo:min(lo+sweepBlock, len(arrivals))]
		for _, b := range backends {
			for _, p := range block {
				t0 := time.Now()
				b.ky.Keys(p)
				t1 := time.Now()
				_, err1 := b.index.Peek(p)
				tw := time.Now()
				_, err2 := b.index.Peek(p)
				t2 := time.Now()
				_, err3 := b.index.Resolve(p)
				t3 := time.Now()
				if err := errors.Join(err1, err2, err3); err != nil {
					return nil, err
				}
				b.keys = append(b.keys, t1.Sub(t0))
				b.gather = append(b.gather, tw.Sub(t1))
				b.commit = append(b.commit, t3.Sub(t2)-t2.Sub(tw))
			}
		}
	}
	med := func(ds []time.Duration) time.Duration { return time.Duration(median(us(ds)) * 1e3) }
	out := make([]sweepPoint, len(backends))
	for i, b := range backends {
		total := make([]time.Duration, len(b.gather))
		for j := range total {
			total[j] = b.gather[j] + b.commit[j]
		}
		out[i] = sweepPoint{shards: b.shards, keys: med(b.keys), gather: med(b.gather), commit: med(b.commit), total: med(total)}
	}
	return out, nil
}

// diskReplay is a serial replay through a standalone disk-backed shard
// group, timed per public call.
type diskReplay struct {
	shards                      int
	gather, warm, resolve, sync []time.Duration
	// checkpoint holds the stalls of the resolves that auto-checkpointed
	// the group: the resolve plus the sync after it.
	checkpoint []time.Duration
	// walBytes is the log growth over walWrites writes, in intervals
	// without a rotation.
	walBytes, walWrites int64
	// disk sums the shards' disk counters over the replay; stored is the
	// bytes under the directory at its end.
	disk   shard.DiskStats
	stored int64
}

// openDiskGroup builds a disk-backed shard group in dir holding snap, with
// the replay's memtable budget, page cache and compaction trigger, and
// checkpoints it, the same way the server's disk-mode reload does.
func openDiskGroup(dir string, snap *incremental.Snapshot, shards int) (*shard.Group, error) {
	layout, err := store.RecoverDiskDir(dir, shards)
	if err != nil {
		return nil, err
	}
	layout.Close()
	parts := make([]*diskindex.Partition, layout.Shards)
	for k, st := range layout.Shard {
		p, err := diskindex.Open(diskindex.Options{
			Config: snap.Config,
			Shards: layout.Shards,
			Index:  k,
			State: &store.DiskShardState{Dir: st.Dir, NextSeq: st.NextSeq, NextGen: st.NextGen,
				NextWal: st.NextWal, WALs: st.WALs},
			Checkpoint:   layout.Checkpoint,
			Size:         layout.Size,
			CacheBytes:   diskCache,
			CompactAfter: diskCompactAfter,
			WAL:          true,
			WALDefer:     true,
		})
		if err != nil {
			for _, q := range parts[:k] {
				q.Close()
			}
			return nil, err
		}
		parts[k] = p
	}
	g, err := shard.FromSnapshot(snap, shard.Config{
		Shards:         layout.Shards,
		MemtableBudget: diskMemtable,
		Checkpoint:     layout.MaxCheckpoint,
		Backends:       func(k int) (shard.Backend, error) { return parts[k], nil },
	})
	if err != nil {
		return nil, err
	}
	if err := g.Checkpoint(); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// replayDisk replays the arrivals through a standalone disk-backed group
// restored from snap, timing Peek (twice), Resolve and the WAL sync
// that the serving layer's "always" policy runs after each batch — here
// after each write, as at one profile per batch. Spans go to tr when it
// is non-nil.
func replayDisk(dir string, snap *incremental.Snapshot, arrivals []entity.Profile, shards int, tr *tracer) (diskReplay, error) {
	g, err := openDiskGroup(dir, snap, shards)
	if err != nil {
		return diskReplay{}, err
	}
	out := diskReplay{
		shards:  shards,
		gather:  make([]time.Duration, len(arrivals)),
		warm:    make([]time.Duration, len(arrivals)),
		resolve: make([]time.Duration, len(arrivals)),
		sync:    make([]time.Duration, len(arrivals)),
	}
	walBytes := make([]int64, shards)
	before := diskTotals(g.Stats())
	for i, p := range arrivals {
		cp := g.Checkpointed()
		t1 := time.Now()
		_, err1 := g.Peek(p)
		tw := time.Now()
		_, err2 := g.Peek(p)
		t2 := time.Now()
		_, err3 := g.Resolve(p)
		t3 := time.Now()
		err4 := g.SyncWAL()
		t4 := time.Now()
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			g.Close()
			return out, err
		}
		out.gather[i], out.warm[i] = tw.Sub(t1), t2.Sub(tw)
		out.resolve[i], out.sync[i] = t3.Sub(t2), t4.Sub(t3)
		name, syncName := "shard.resolve", "store.wal_sync"
		if g.Checkpointed() != cp {
			// The resolve sealed every shard, and a shard whose sealed
			// segments reached the compaction trigger merged them right
			// after; the sync that follows waits for that merge. Both
			// are the checkpoint's foreground stall.
			out.checkpoint = append(out.checkpoint, t4.Sub(t2))
			name, syncName = "diskindex.checkpoint", "diskindex.compact_wait"
		}
		if tr != nil {
			tr.add("probe.gather", -1, int64(i), t1, tw)
			tr.add("probe.gather_warm", -1, int64(i), tw, t2)
			tr.add(name, -1, int64(i), t2, t3)
			tr.add(syncName, -1, int64(i), t3, t4)
		}
		// The live log's growth, sampled every walSample writes; an
		// interval in which a seal rotated the log is skipped.
		if (i+1)%walSample == 0 {
			var grown int64
			rotated := false
			for k, st := range g.Stats() {
				if d := st.Disk; d != nil {
					if d.WalBytes < walBytes[k] {
						rotated = true
					}
					grown += d.WalBytes - walBytes[k]
					walBytes[k] = d.WalBytes
				}
			}
			if !rotated && i+1 > walSample {
				out.walBytes += grown
				out.walWrites += walSample
			}
		}
	}
	// Stats waits for every shard's pending compaction.
	after := diskTotals(g.Stats())
	out.disk = shard.DiskStats{
		Seals:          after.Seals - before.Seals,
		Compactions:    after.Compactions - before.Compactions,
		PageReads:      after.PageReads - before.PageReads,
		CacheHits:      after.CacheHits - before.CacheHits,
		WalSyncs:       after.WalSyncs - before.WalSyncs,
		WalSyncTotalNs: after.WalSyncTotalNs - before.WalSyncTotalNs,
	}
	if out.stored, err = dirBytes(dir); err != nil {
		g.Close()
		return out, err
	}
	return out, g.Close()
}

// diskTotals sums the per-shard disk counters.
func diskTotals(stats []shard.Stat) shard.DiskStats {
	var t shard.DiskStats
	for _, s := range stats {
		if d := s.Disk; d != nil {
			t.Seals += d.Seals
			t.Compactions += d.Compactions
			t.PageReads += d.PageReads
			t.CacheHits += d.CacheHits
			t.WalSyncs += d.WalSyncs
			t.WalSyncTotalNs += d.WalSyncTotalNs
		}
	}
	return t
}

// dirBytes sums the sizes of the regular files under dir. A file the
// server removes during the walk (a compacted segment, a rotated log) is
// skipped.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
