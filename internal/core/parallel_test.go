package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"metablocking/internal/block"
	"metablocking/internal/blocking"
	"metablocking/internal/datagen"
	"metablocking/internal/entity"
	"metablocking/internal/obs"
	"metablocking/internal/paperexample"
	"metablocking/internal/par"
)

// TestPruneParallelMatchesSerial: for every algorithm, scheme, worker
// count and task type, the parallel implementation must retain exactly
// the serial result (after canonical ordering).
func TestPruneParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inputs := map[string]*block.Collection{
		"dirty":   randomDirtyBlocks(rng, 60, 50),
		"clean":   randomCleanBlocks(rng, 25, 60, 50),
		"example": blocking.TokenBlocking{}.Build(paperexample.Collection()),
	}
	for name, blocks := range inputs {
		for _, scheme := range AllSchemes {
			for _, alg := range AllAlgorithms {
				want := NewGraph(blocks, scheme).Prune(alg)
				sortPairs(want)
				for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
					got := NewGraph(blocks, scheme).PruneParallel(alg, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%v/%v workers=%d: parallel (%d pairs) ≠ serial (%d pairs)",
							name, scheme, alg, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestPruneParallelOnSyntheticDataset exercises the parallel path on a
// realistic blocking graph with default worker count.
func TestPruneParallelOnSyntheticDataset(t *testing.T) {
	ds := datagen.D1C(0.05)
	blocks := blocking.TokenBlocking{}.Build(ds.Collection)
	for _, alg := range []Algorithm{CEP, WEP, RedefinedCNP, ReciprocalWNP} {
		serial := NewGraph(blocks, ECBS).Prune(alg)
		sortPairs(serial)
		parallel := NewGraph(blocks, ECBS).PruneParallel(alg, 0)
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%v: parallel ≠ serial on synthetic data: %d vs %d pairs",
				alg, len(parallel), len(serial))
		}
	}
}

// TestNewGraphWorkersMatchesSerial: the parallel graph construction must
// produce the same Entity Index contents and (for EJS) the same node
// degrees as the serial build, for every worker count.
func TestNewGraphWorkersMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	inputs := map[string]*block.Collection{
		"dirty": randomDirtyBlocks(rng, 60, 50),
		"clean": randomCleanBlocks(rng, 25, 60, 50),
	}
	for name, blocks := range inputs {
		want := NewGraph(blocks, EJS)
		for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0), -1} {
			got := NewGraphWorkers(blocks, EJS, workers)
			if got.NumNodes() != want.NumNodes() {
				t.Fatalf("%s workers=%d: NumNodes %d ≠ %d", name, workers, got.NumNodes(), want.NumNodes())
			}
			for id := 0; id < blocks.NumEntities; id++ {
				i := entity.ID(id)
				if !reflect.DeepEqual(got.index.BlockList(i), want.index.BlockList(i)) {
					t.Fatalf("%s workers=%d entity %d: block lists differ", name, workers, id)
				}
				if got.degrees[i] != want.degrees[i] {
					t.Fatalf("%s workers=%d entity %d: degree %d ≠ %d",
						name, workers, id, got.degrees[i], want.degrees[i])
				}
			}
		}
	}
}

// TestShardSharesImmutableState ensures shards see the same graph but own
// their scratch.
func TestShardSharesImmutableState(t *testing.T) {
	g := exampleGraph(t, EJS)
	s := g.shard()
	if s.index != g.index || s.blocks != g.blocks {
		t.Fatal("shard must share index and blocks")
	}
	if &s.sc.cells[0] == &g.sc.cells[0] {
		t.Fatal("shard must not share scratch arrays")
	}
	if s.ctx != g.ctx {
		t.Fatal("shard must inherit the weight context")
	}
}

// TestRunWorkersWithOriginalWeighting: OriginalWeighting takes precedence
// over Workers (parallel traversals are optimized-only), and the result
// still matches the serial optimized run.
func TestRunWorkersWithOriginalWeighting(t *testing.T) {
	blocks := blocking.TokenBlocking{}.Build(paperexample.Collection())
	serial := Run(blocks, Config{Scheme: JS, Algorithm: WEP})
	both := Run(blocks, Config{Scheme: JS, Algorithm: WEP, OriginalWeighting: true, Workers: 4})
	if len(serial.Pairs) != len(both.Pairs) {
		t.Fatalf("results differ: %d vs %d", len(serial.Pairs), len(both.Pairs))
	}
	negative := Run(blocks, Config{Scheme: JS, Algorithm: WEP, Workers: -1})
	if len(negative.Pairs) != len(serial.Pairs) {
		t.Fatalf("Workers=-1 changed the result: %d vs %d", len(negative.Pairs), len(serial.Pairs))
	}
}

// TestPruneParallelSkewedMatchesSerial: on a Dirty collection whose heavy
// profiles sit at the top of the ID range — ToDirty of a terse source
// followed by a verbose one, the shape that unbalances fixed per-worker
// ranges — the dynamically chunked parallel prune retains exactly the
// sorted serial result for every algorithm, scheme and worker count.
func TestPruneParallelSkewedMatchesSerial(t *testing.T) {
	blocks := blocking.TokenBlocking{}.Build(datagen.D2D(0.02).Collection)
	g := NewGraph(blocks, CBS)
	half := blocks.NumEntities / 2
	var low, high int
	for id := 0; id < blocks.NumEntities; id++ {
		if id < half {
			low += g.index.NumBlocks(entity.ID(id))
		} else {
			high += g.index.NumBlocks(entity.ID(id))
		}
	}
	if high < 2*low {
		t.Fatalf("input not skewed: block assignments %d in the low half, %d in the high half", low, high)
	}
	for _, scheme := range AllSchemes {
		for _, alg := range AllAlgorithms {
			want := NewGraph(blocks, scheme).Prune(alg)
			sortPairs(want)
			for _, workers := range []int{2, 3, 7} {
				got := NewGraph(blocks, scheme).PruneParallel(alg, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v/%v workers=%d: parallel (%d pairs) ≠ serial (%d pairs)",
						scheme, alg, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestPruneParallelWorkerPanic: a panic inside a prune worker goroutine
// (here an out-of-range scheme reaching the weight function) must not kill
// the process; it re-raises on the caller as a *par.PanicError.
func TestPruneParallelWorkerPanic(t *testing.T) {
	blocks := blocking.TokenBlocking{}.Build(paperexample.Collection())
	for _, alg := range []Algorithm{WNP, ReciprocalWNP, CEP} {
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			NewGraph(blocks, Scheme(99)).PruneParallel(alg, 2)
		}()
		pe, ok := recovered.(*par.PanicError)
		if !ok {
			t.Fatalf("%v: recovered %T (%v), want *par.PanicError", alg, recovered, recovered)
		}
		if msg, _ := pe.Value.(string); !strings.Contains(msg, "unknown weighting scheme") {
			t.Fatalf("%v: panic value %v", alg, pe.Value)
		}
	}
}

// TestPruneProgressAndWeighings: for every algorithm, serial and chunked
// parallel runs advance the prune meter to exactly its advertised total,
// and Reciprocal WNP weighs each directed edge once — one node pass, no
// edge pass — at every worker count.
func TestPruneProgressAndWeighings(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	inputs := map[string]*block.Collection{
		"dirty": randomDirtyBlocks(rng, 300, 200),
		"clean": randomCleanBlocks(rng, 120, 300, 200),
	}
	for name, blocks := range inputs {
		directed := 2 * NewGraph(blocks, JS).NumEdges()
		for _, alg := range AllAlgorithms {
			for _, workers := range []int{0, 2, 3} {
				var mu sync.Mutex
				var done, total int64
				m := obs.NewMetrics()
				o := obs.New(context.Background(), obs.WithMetrics(m),
					obs.WithProgress(func(stage string, d, tot int64) {
						if stage != obs.StagePrune {
							return
						}
						mu.Lock()
						done, total = max(done, d), tot
						mu.Unlock()
					}))
				Run(blocks, Config{Scheme: JS, Algorithm: alg, Workers: workers, Obs: o})
				if done != total || total != pruneTicks(alg, blocks) {
					t.Errorf("%s/%v workers=%d: prune progress done=%d total=%d, want both %d",
						name, alg, workers, done, total, pruneTicks(alg, blocks))
				}
				if alg != ReciprocalWNP {
					continue
				}
				if got := m.Counter(obs.CtrEdgesWeighted).Value(); got != directed {
					t.Errorf("%s workers=%d: %d edges weighed, want %d (one per directed edge)",
						name, workers, got, directed)
				}
			}
		}
	}
}
