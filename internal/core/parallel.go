package core

import (
	"slices"

	"metablocking/internal/arena"
	"metablocking/internal/entity"
	"metablocking/internal/floatsum"
	"metablocking/internal/obs"
	"metablocking/internal/par"
)

// shard returns a Graph view sharing the immutable state (blocks, Entity
// Index, per-block cardinalities, degrees) but with private ScanCount
// scratch, so multiple shards can traverse concurrently. Scratch comes
// from the graph's pool; parallelChunks recycles it when the shard's work
// is done.
func (g *Graph) shard() *Graph {
	ng := *g
	ng.sc = g.getScratch()
	return &ng
}

func (g *Graph) getScratch() *scanScratch {
	if v := g.scratchPool.Get(); v != nil {
		return v.(*scanScratch)
	}
	return &scanScratch{cells: make([]scanCell, g.blocks.NumEntities)}
}

// forEachNodeRange is ForEachNode restricted to node IDs in [lo, hi).
func (g *Graph) forEachNodeRange(lo, hi int, fn func(i entity.ID, neighbors []entity.ID, weights []float64)) {
	tick := obsTick{o: g.obs, m: g.meter}
	var weighed int64
	for id := lo; id < hi; id++ {
		if tick.step() {
			break
		}
		i := entity.ID(id)
		if g.index.NumBlocks(i) == 0 {
			continue
		}
		neighbors := g.scanNeighborhood(i)
		if len(neighbors) == 0 {
			continue
		}
		weights := g.fillWeights(i, neighbors)
		weighed += int64(len(neighbors))
		fn(i, neighbors, weights)
	}
	tick.flush()
	g.obs.Counter(obs.CtrEdgesWeighted).Add(weighed)
}

// forEachEdgeRange is ForEachEdge restricted to edges whose emitting
// endpoint (the smaller ID for Dirty ER, the E1 member for Clean-Clean ER)
// lies in [lo, hi). Every emitted pair's canonical A is the emitting
// endpoint, so per-range result buckets cover disjoint ascending A ranges.
func (g *Graph) forEachEdgeRange(lo, hi int, fn func(i, j entity.ID, w float64)) {
	tick := obsTick{o: g.obs, m: g.meter}
	clean := g.blocks.Task == entity.CleanClean
	if clean && hi > g.blocks.Split {
		hi = g.blocks.Split
	}
	var weighed int64
	for id := lo; id < hi; id++ {
		if tick.step() {
			break
		}
		i := entity.ID(id)
		bi := g.index.NumBlocks(i)
		if bi == 0 {
			continue
		}
		var di int32
		if g.degrees != nil {
			di = g.degrees[i]
		}
		cells := g.sc.cells
		for _, j := range g.scanNeighborhood(i) {
			if !clean && j < i {
				continue
			}
			var dj int32
			if g.degrees != nil {
				dj = g.degrees[j]
			}
			weighed++
			fn(i, j, g.ctx.weight(cells[j].common, bi, g.index.NumBlocks(j), di, dj))
		}
	}
	tick.flush()
	g.obs.Counter(obs.CtrEdgesWeighted).Add(weighed)
}

// meanOf is the exact neighborhood mean (see internal/floatsum), computed
// with this graph's persistent accumulator so the partials buffer is
// reused across every node of a traversal — floatsum.Mean's stack buffer
// escapes once per call. Identical Add sequence and rounding, so the
// threshold is bit-identical.
func (g *Graph) meanOf(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	a := &g.sc.meanAcc
	a.Reset()
	for _, x := range xs {
		a.Add(x)
	}
	return a.Sum() / float64(len(xs))
}

// parallelChunks runs fn over the par.Chunks of [0, NumEntities): chunks
// are pulled dynamically, so an ID range whose neighborhoods are heavy
// (e.g. a verbose source listed after a terse one) is spread over every
// worker instead of landing on one. Each worker goroutine traverses on its
// own shard of the graph (private ScanCount scratch, recycled afterwards);
// a serial run (workers ≤ 1) traverses on g itself. fn may keep per-worker
// state indexed by worker and order-sensitive output in buckets of size
// par.NumChunks(workers, NumEntities) indexed by chunk. workers must
// already be resolved with par.Resolve.
func (g *Graph) parallelChunks(workers int, fn func(w *Graph, worker, chunk, lo, hi int)) {
	n := g.blocks.NumEntities
	if workers <= 1 {
		par.Chunks(1, n, func(_, chunk, lo, hi int) { fn(g, 0, chunk, lo, hi) })
		return
	}
	shards := make([]*Graph, workers)
	par.Chunks(workers, n, func(worker, chunk, lo, hi int) {
		// A chunk may be shorter than the traversals' cancellation stride,
		// so poll once per chunk too.
		if g.obs.Canceled() {
			return
		}
		s := shards[worker]
		if s == nil {
			s = g.shard()
			shards[worker] = s
		}
		fn(s, worker, chunk, lo, hi)
	})
	for _, s := range shards {
		if s != nil {
			g.scratchPool.Put(s.sc)
		}
	}
}

// PruneParallel applies the pruning algorithm using the given number of
// workers (0 or negative = GOMAXPROCS) and returns the same retained
// comparisons as Prune, in a canonical order. It supports the Optimized
// Edge Weighting only; every neighborhood is scanned whole by the worker
// that pulled its node's chunk, so the per-node criteria are computed
// exactly as in the serial implementation.
func (g *Graph) PruneParallel(a Algorithm, workers int) []entity.Pair {
	if workers == 0 {
		workers = -1 // historical PruneParallel convention: 0 = GOMAXPROCS
	}
	workers = par.Resolve(workers, g.blocks.NumEntities)
	g.obs.Gauge(obs.GaugeWorkersPrune).Set(int64(workers))
	switch a {
	case CEP:
		return g.cepParallel(workers)
	case WEP:
		return g.wepParallel(workers)
	case CNP:
		return g.cnpParallel(workers)
	case WNP:
		return g.wnpParallel(workers)
	case RedefinedCNP:
		return g.redefinedCNPParallel(false, workers)
	case ReciprocalCNP:
		return g.redefinedCNPParallel(true, workers)
	case RedefinedWNP:
		return g.redefinedWNPParallel(workers)
	case ReciprocalWNP:
		return g.reciprocalWNPParallel(workers)
	default:
		out := g.Prune(a)
		sortPairs(out)
		return out
	}
}

func pairLess(p, q entity.Pair) bool {
	if p.A != q.A {
		return p.A < q.A
	}
	return p.B < q.B
}

func comparePairs(p, q entity.Pair) int {
	switch {
	case p.A < q.A:
		return -1
	case p.A > q.A:
		return 1
	case p.B < q.B:
		return -1
	case p.B > q.B:
		return 1
	}
	return 0
}

// pairKeys pools the packed-key buffers of concurrent sortPairs calls
// (sortBucketsConcurrently sorts every worker bucket at once).
var pairKeys arena.Pool[uint64]

// sortPairs orders pairs canonically by (A, B). Exact duplicates (the
// redundant comparisons of CNP/WNP) are indistinguishable, so the unstable
// sort is deterministic. Large slices are sorted through packed uint64
// keys — IDs are non-negative, so (A, B) lexicographic order equals the
// numeric order of A<<32|B — because the specialized slices.Sort beats the
// comparison-function sort by a wide margin on the pair-assembly path.
func sortPairs(pairs []entity.Pair) {
	if len(pairs) < 64 {
		slices.SortFunc(pairs, comparePairs)
		return
	}
	b := pairKeys.GetCap(len(pairs))
	keys := b.S[:len(pairs)]
	for i, p := range pairs {
		keys[i] = uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
	}
	slices.Sort(keys)
	for i, k := range keys {
		pairs[i] = entity.Pair{A: int32(k >> 32), B: int32(uint32(k))}
	}
	b.S = keys
	pairKeys.Put(b)
}

// assembleRangeBuckets turns per-chunk buckets produced from disjoint
// ascending emitting-endpoint ranges (forEachEdgeRange, the Reciprocal WNP
// candidate runs) into one canonically ordered slice: each bucket is
// sorted concurrently, and because bucket b's pairs all have smaller A
// than bucket b+1's, the sorted buckets concatenate into a globally sorted
// result — no k-way merge and no global sort.
func assembleRangeBuckets(buckets [][]entity.Pair) []entity.Pair {
	sortBucketsConcurrently(buckets)
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	out := make([]entity.Pair, 0, total)
	for _, b := range buckets {
		out = append(out, b...)
	}
	return out
}

// assembleNodeBuckets merges buckets whose pairs may interleave
// across the whole ID space (node-centric traversals emit MakePair(i, j)
// with j on either side of the worker's range): each bucket is sorted
// concurrently, then adjacent runs are merged pairwise — also
// concurrently — into ping-pong buffers until one sorted run remains.
func assembleNodeBuckets(buckets [][]entity.Pair) []entity.Pair {
	sortBucketsConcurrently(buckets)

	// Pack the sorted buckets into one backing array, tracking run bounds.
	total := 0
	runs := make([]int, 0, len(buckets)+1)
	runs = append(runs, 0)
	for _, b := range buckets {
		if len(b) > 0 {
			total += len(b)
			runs = append(runs, total)
		}
	}
	cur := make([]entity.Pair, total)
	{
		off := 0
		for _, b := range buckets {
			off += copy(cur[off:], b)
		}
	}
	if len(runs) <= 2 {
		return cur
	}
	tmp := make([]entity.Pair, total)
	for len(runs) > 2 {
		nextRuns := make([]int, 0, len(runs)/2+2)
		nextRuns = append(nextRuns, 0)
		var thunks []func()
		for i := 0; i+2 < len(runs); i += 2 {
			lo, mid, hi := runs[i], runs[i+1], runs[i+2]
			nextRuns = append(nextRuns, hi)
			thunks = append(thunks, func() {
				mergePairRuns(tmp[lo:hi], cur[lo:mid], cur[mid:hi])
			})
		}
		if len(runs)%2 == 0 { // odd run count: copy the trailing run over
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			nextRuns = append(nextRuns, hi)
			thunks = append(thunks, func() { copy(tmp[lo:hi], cur[lo:hi]) })
		}
		par.Do(thunks...)
		cur, tmp = tmp, cur
		runs = nextRuns
	}
	return cur
}

// mergePairRuns merges the two sorted runs a and b into dst
// (len(dst) == len(a)+len(b)), preferring a on ties.
func mergePairRuns(dst, a, b []entity.Pair) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if pairLess(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// sortBucketsConcurrently sorts every bucket canonically, one goroutine per
// non-trivial bucket.
func sortBucketsConcurrently(buckets [][]entity.Pair) {
	var thunks []func()
	for _, b := range buckets {
		if len(b) > 1 {
			b := b
			thunks = append(thunks, func() { sortPairs(b) })
		}
	}
	if len(thunks) == 0 {
		return
	}
	par.Do(thunks...)
}

func (g *Graph) wepParallel(workers int) []entity.Pair {
	// Pass 1: per-worker exact partial sums (no edge weight is ever
	// materialized). The exact sum is a property of the weight multiset, so
	// the resulting mean is bit-identical to the serial threshold for every
	// worker count and chunk schedule.
	accs := make([]floatsum.Acc, workers)
	g.parallelChunks(workers, func(w *Graph, worker, _, lo, hi int) {
		acc := &accs[worker]
		w.forEachEdgeRange(lo, hi, func(_, _ entity.ID, wt float64) {
			acc.Add(wt)
		})
	})
	var total floatsum.Acc
	for i := range accs {
		total.Merge(&accs[i])
	}
	if total.Count() == 0 {
		return nil
	}
	mean := total.Mean()

	// Pass 2: retain in per-chunk buckets over disjoint ascending A ranges.
	buckets := make([][]entity.Pair, par.NumChunks(workers, g.blocks.NumEntities))
	g.parallelChunks(workers, func(w *Graph, _, chunk, lo, hi int) {
		var local []entity.Pair
		w.forEachEdgeRange(lo, hi, func(i, j entity.ID, wt float64) {
			if wt >= mean {
				local = append(local, entity.MakePair(i, j))
			}
		})
		buckets[chunk] = local
	})
	return assembleRangeBuckets(buckets)
}

func (g *Graph) cepParallel(workers int) []entity.Pair {
	k := g.CardinalityEdgeThreshold()
	if k == 0 {
		return nil
	}
	// Per-worker top-K heaps: beats is a total order, so the global top-K
	// of their union does not depend on which worker saw which edge.
	heaps := make([]*edgeHeap, workers)
	g.parallelChunks(workers, func(w *Graph, worker, _, lo, hi int) {
		h := heaps[worker]
		if h == nil {
			h = newEdgeHeap(k)
			heaps[worker] = h
		}
		w.forEachEdgeRange(lo, hi, func(i, j entity.ID, wt float64) {
			h.offer(wt, i, j)
		})
	})
	// Merge: the global top-K of the per-worker top-Ks.
	final := newEdgeHeap(k)
	for _, h := range heaps {
		if h == nil {
			continue
		}
		for _, e := range h.items {
			final.offer(e.w, e.i, e.j)
		}
	}
	out := make([]entity.Pair, 0, final.len())
	for _, e := range final.items {
		out = append(out, entity.MakePair(e.i, e.j))
	}
	sortPairs(out)
	return out
}

// cnpParallel and wnpParallel keep one bucket per worker: assembleNodeBuckets
// sorts and merges every bucket, and duplicate pairs are indistinguishable,
// so the result does not depend on which worker pulled which chunk.
func (g *Graph) cnpParallel(workers int) []entity.Pair {
	k := g.CardinalityNodeThreshold()
	buckets := make([][]entity.Pair, workers)
	heaps := make([]*edgeHeap, workers)
	g.parallelChunks(workers, func(w *Graph, worker, _, lo, hi int) {
		h := heaps[worker]
		if h == nil {
			h = newEdgeHeap(k)
			heaps[worker] = h
		}
		local := buckets[worker]
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			h.reset()
			for n, j := range neighbors {
				h.offer(weights[n], i, j)
			}
			for _, e := range h.items {
				local = append(local, entity.MakePair(e.i, e.j))
			}
		})
		buckets[worker] = local
	})
	return assembleNodeBuckets(buckets)
}

func (g *Graph) wnpParallel(workers int) []entity.Pair {
	buckets := make([][]entity.Pair, workers)
	g.parallelChunks(workers, func(w *Graph, worker, _, lo, hi int) {
		local := buckets[worker]
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			threshold := w.meanOf(weights)
			for n, j := range neighbors {
				if weights[n] >= threshold {
					local = append(local, entity.MakePair(i, j))
				}
			}
		})
		buckets[worker] = local
	})
	return assembleNodeBuckets(buckets)
}

// pairMark is one endpoint's vote for a pair: bit 1 when the smaller
// endpoint ranked the edge in its top-k, bit 2 when the larger one did.
type pairMark struct {
	p entity.Pair
	m uint8
}

// redefinedCNPParallel implements the Redefined (OR) and Reciprocal (AND)
// CNP variants with sharded mark accumulation instead of a global hash
// map: finder workers emit per-reducer mark lists partitioned by the
// pair's canonical A, and each reducer sorts its shard and merges mark
// runs in one pass. Reducer shards cover disjoint ascending A ranges, so
// their outputs concatenate into the canonical global order.
func (g *Graph) redefinedCNPParallel(reciprocal bool, workers int) []entity.Pair {
	k := g.CardinalityNodeThreshold()
	n := g.blocks.NumEntities
	reducers := workers
	marks := make([][][]pairMark, workers)
	heaps := make([]*edgeHeap, workers)
	g.parallelChunks(workers, func(w *Graph, worker, _, lo, hi int) {
		local, h := marks[worker], heaps[worker]
		if h == nil {
			local, h = make([][]pairMark, reducers), newEdgeHeap(k)
			heaps[worker] = h
		}
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			h.reset()
			for nn, j := range neighbors {
				h.offer(weights[nn], i, j)
			}
			for _, e := range h.items {
				p := entity.MakePair(e.i, e.j)
				bit := uint8(1)
				if e.i > e.j {
					bit = 2
				}
				r := int(uint64(p.A) * uint64(reducers) / uint64(n))
				local[r] = append(local[r], pairMark{p: p, m: bit})
			}
		})
		marks[worker] = local
	})

	outs := make([][]entity.Pair, reducers)
	par.Ranges(reducers, reducers, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			outs[r] = reduceMarkShard(marks, r, reciprocal)
		}
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	out := make([]entity.Pair, 0, total)
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

// reduceMarkShard gathers every worker's marks for reducer shard r, sorts
// them canonically and ORs each pair's bits in a single run scan.
func reduceMarkShard(marks [][][]pairMark, r int, reciprocal bool) []entity.Pair {
	total := 0
	for _, workerMarks := range marks {
		if workerMarks != nil {
			total += len(workerMarks[r])
		}
	}
	if total == 0 {
		return nil
	}
	shard := make([]pairMark, 0, total)
	for _, workerMarks := range marks {
		if workerMarks != nil {
			shard = append(shard, workerMarks[r]...)
		}
	}
	// Equal pairs may carry different bits; their relative order is
	// irrelevant because the run scan ORs them.
	slices.SortFunc(shard, func(a, b pairMark) int { return comparePairs(a.p, b.p) })
	var out []entity.Pair
	for i := 0; i < len(shard); {
		p := shard[i].p
		m := shard[i].m
		for i++; i < len(shard) && shard[i].p == p; i++ {
			m |= shard[i].m
		}
		if !reciprocal || m == 3 {
			out = append(out, p)
		}
	}
	return out
}

// redefinedWNPParallel is Redefined WNP's two passes over chunks: the node
// pass fixes every threshold, then the edge pass keeps an edge meeting
// either endpoint's. The OR needs the edges below the emitting endpoint's
// own threshold, so the edge pass cannot be folded into the node pass the
// way reciprocalWNPParallel folds it.
func (g *Graph) redefinedWNPParallel(workers int) []entity.Pair {
	thresholds := make([]float64, g.blocks.NumEntities)
	g.parallelChunks(workers, func(w *Graph, _, _, lo, hi int) {
		w.forEachNodeRange(lo, hi, func(i entity.ID, _ []entity.ID, weights []float64) {
			thresholds[i] = w.meanOf(weights) // disjoint chunk ranges: no race
		})
	})
	buckets := make([][]entity.Pair, par.NumChunks(workers, g.blocks.NumEntities))
	g.parallelChunks(workers, func(w *Graph, _, chunk, lo, hi int) {
		var local []entity.Pair
		w.forEachEdgeRange(lo, hi, func(i, j entity.ID, wt float64) {
			if wt >= thresholds[i] || wt >= thresholds[j] {
				local = append(local, entity.MakePair(i, j))
			}
		})
		buckets[chunk] = local
	})
	return assembleRangeBuckets(buckets)
}

// reciprocalWNPParallel is the single-pass Reciprocal WNP of reciprocalWNP
// over chunks: each chunk's node pass fixes its thresholds and keeps its
// candidate runs; after the barrier every threshold is final, and each
// chunk's runs are filtered against the other endpoint's threshold and
// freed. A chunk's candidates all have A = i inside the chunk, so the
// per-chunk buckets cover disjoint ascending A ranges.
func (g *Graph) reciprocalWNPParallel(workers int) []entity.Pair {
	n := g.blocks.NumEntities
	thresholds := make([]float64, n)
	cands := make([]wnpCandidates, par.NumChunks(workers, n))
	g.parallelChunks(workers, func(w *Graph, _, chunk, lo, hi int) {
		var c wnpCandidates
		w.forEachNodeRange(lo, hi, func(i entity.ID, neighbors []entity.ID, weights []float64) {
			thresholds[i] = w.meanOf(weights) // disjoint chunk ranges: no race
			c.add(i, neighbors, weights, thresholds[i])
		})
		cands[chunk] = c
	})
	buckets := make([][]entity.Pair, len(cands))
	par.Chunks(workers, len(cands), func(_, _, lo, hi int) {
		for c := lo; c < hi; c++ {
			buckets[c] = cands[c].retained(thresholds)
			cands[c] = wnpCandidates{}
		}
	})
	return assembleRangeBuckets(buckets)
}
