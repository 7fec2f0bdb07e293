// Package par holds the small shared machinery of the parallel pipeline:
// worker-count resolution, range fan-out, and panic isolation.
//
// Two fan-outs exist. Ranges gives each worker one contiguous range; it
// suits stages whose cost per index is even and whose callers keep
// per-worker arrays sized to the whole input. Chunks cuts the input into
// many more ascending chunks than workers and lets the workers pull them
// through an atomic counter, so a skewed input (expensive IDs bunched at
// one end) still keeps every worker busy. Determinism never rests on which
// worker ran what: callers keep order-sensitive output in buckets indexed
// by chunk — chunk c's range lies below chunk c+1's, so sorted buckets
// concatenate in order — and keep only order-free state (scratch, exact
// partial sums, heaps under a total order) per worker.
//
// A panic inside a worker goroutine would normally kill the whole process
// — there is no recovering another goroutine's panic. Ranges, Chunks and
// Do therefore recover inside each worker, let every other worker drain,
// and re-panic the first captured panic as a *PanicError (stack attached)
// on the calling goroutine, where a top-level recover (Pipeline.RunContext,
// the server's flush loop) can turn it into an ordinary error.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error: the recovered
// value plus the stack of the panicking goroutine. It crosses goroutine
// boundaries via re-panic on the caller, and API boundaries as an error
// (errors.As(&pe)).
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic: %v", e.Value)
}

// Recovered normalizes a recover() result into a *PanicError, capturing
// the current stack unless r already is one. It returns nil for a nil r,
// so it can be called unconditionally in a deferred recover block.
func Recovered(r any) *PanicError {
	if r == nil {
		return nil
	}
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// guard runs fn, converting a panic into the returned *PanicError.
func guard(fn func()) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = Recovered(r)
		}
	}()
	fn()
	return nil
}

// Resolve maps a Workers knob to a concrete worker count for an input of
// size n, using the convention of core.Config.Workers: 0 or 1 keeps the
// serial path, negative uses GOMAXPROCS, positive uses that many workers.
// The result is clamped to [1, n] (with a minimum of 1 for empty inputs).
func Resolve(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Ranges splits [0, n) into one contiguous chunk per worker and runs
// fn(worker, lo, hi) concurrently. workers must already be resolved
// (≥ 1); workers == 1 runs fn inline with the full range. Trailing workers
// whose chunk is empty are not started, so fn may index per-worker result
// buckets with its worker argument directly.
//
// A panic inside fn does not kill the process: every other worker drains,
// then the first captured panic is re-raised on the calling goroutine as a
// *PanicError carrying the worker's stack.
func Ranges(workers, n int, fn func(worker, lo, hi int)) {
	if workers <= 1 || n == 0 {
		if pe := guard(func() { fn(0, 0, n) }); pe != nil {
			panic(pe)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var (
		wg    sync.WaitGroup
		first atomic.Pointer[PanicError]
	)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(worker, lo, hi int) {
			defer wg.Done()
			if pe := guard(func() { fn(worker, lo, hi) }); pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}

// chunksPerWorker is how many chunks Chunks cuts the input into per
// worker: enough that the last chunks to finish are short next to the
// whole stage, few enough that per-chunk buckets stay cheap to assemble.
const chunksPerWorker = 64

// NumChunks returns how many chunks Chunks(workers, n, ...) runs, so
// callers can size chunk-indexed buckets: one chunk for a serial run,
// chunksPerWorker per worker otherwise, never more than n (0 for n == 0).
func NumChunks(workers, n int) int {
	c := 1
	if workers > 1 {
		c = chunksPerWorker * workers
	}
	if c > n {
		c = n
	}
	return c
}

// Chunks splits [0, n) into NumChunks(workers, n) ascending chunks of
// near-equal length and runs fn(worker, chunk, lo, hi) for each, pulled in
// ascending chunk order by min(workers, chunks) goroutines. workers must
// already be resolved (≥ 1); a single worker runs every chunk inline. Each
// worker index is used by one goroutine only, so fn may keep per-worker
// state indexed by worker without locking; chunk indexes per-chunk output.
//
// A panic inside fn does not kill the process: the other workers stop
// pulling chunks and drain, then the first captured panic is re-raised on
// the calling goroutine as a *PanicError carrying the worker's stack.
func Chunks(workers, n int, fn func(worker, chunk, lo, hi int)) {
	chunks := NumChunks(workers, n)
	bounds := func(c int) (int, int) { return c * n / chunks, (c + 1) * n / chunks }
	if workers <= 1 {
		pe := guard(func() {
			for c := 0; c < chunks; c++ {
				lo, hi := bounds(c)
				fn(0, c, lo, hi)
			}
		})
		if pe != nil {
			panic(pe)
		}
		return
	}
	if workers > chunks {
		workers = chunks
	}
	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		first atomic.Pointer[PanicError]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			pe := guard(func() {
				for first.Load() == nil {
					c := int(next.Add(1) - 1)
					if c >= chunks {
						return
					}
					lo, hi := bounds(c)
					fn(worker, c, lo, hi)
				}
			})
			if pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}(w)
	}
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}

// Do runs the given thunks concurrently and waits for all of them — the
// fork/join used for independent pipeline phases (e.g. sorting per-worker
// result buckets). Panics are isolated the same way as in Ranges: all
// thunks drain, then the first panic re-raises as a *PanicError on the
// caller.
func Do(fns ...func()) {
	if len(fns) == 1 {
		if pe := guard(fns[0]); pe != nil {
			panic(pe)
		}
		return
	}
	var (
		wg    sync.WaitGroup
		first atomic.Pointer[PanicError]
	)
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			if pe := guard(f); pe != nil {
				first.CompareAndSwap(nil, pe)
			}
		}(fn)
	}
	wg.Wait()
	if pe := first.Load(); pe != nil {
		panic(pe)
	}
}
