package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{0, 10, 1}, // serial knob
		{1, 10, 1}, // explicit serial
		{4, 10, 4}, // plain
		{8, 3, 3},  // clamped to n
		{4, 0, 1},  // empty input
		{-1, 1, 1}, // GOMAXPROCS clamped to n
	}
	for _, c := range cases {
		if got := Resolve(c.workers, c.n); got != c.want {
			t.Errorf("Resolve(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestRangesCoversInput(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		var covered atomic.Int64
		Ranges(workers, 100, func(_, lo, hi int) {
			covered.Add(int64(hi - lo))
		})
		if covered.Load() != 100 {
			t.Fatalf("workers=%d covered %d of 100", workers, covered.Load())
		}
	}
}

// TestRangesPanicIsolation: a panicking worker must not kill the process;
// the remaining workers drain and the caller receives one *PanicError with
// the worker's stack attached.
func TestRangesPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var pe *PanicError
		var drained atomic.Int64
		func() {
			defer func() {
				if r := recover(); r != nil {
					var ok bool
					if pe, ok = r.(*PanicError); !ok {
						t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
					}
				}
			}()
			Ranges(workers, workers, func(w, lo, hi int) {
				if w == 0 {
					panic("boom")
				}
				drained.Add(1)
			})
			t.Fatalf("workers=%d: no panic propagated", workers)
		}()
		if pe == nil || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if want := int64(workers - 1); drained.Load() != want {
			t.Fatalf("workers=%d: %d other workers drained, want %d", workers, drained.Load(), want)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("Error() = %q", pe.Error())
		}
	}
}

// TestDoPanicIsolation mirrors the Ranges contract for the fork/join form.
func TestDoPanicIsolation(t *testing.T) {
	for _, thunks := range []int{1, 3} {
		var pe *PanicError
		var drained atomic.Int64
		fns := make([]func(), thunks)
		fns[0] = func() { panic(errors.New("kapow")) }
		for i := 1; i < thunks; i++ {
			fns[i] = func() { drained.Add(1) }
		}
		func() {
			defer func() { pe = Recovered(recover()) }()
			Do(fns...)
			t.Fatalf("thunks=%d: no panic propagated", thunks)
		}()
		if pe == nil {
			t.Fatalf("thunks=%d: nil PanicError", thunks)
		}
		if err, ok := pe.Value.(error); !ok || err.Error() != "kapow" {
			t.Fatalf("thunks=%d: Value = %v", thunks, pe.Value)
		}
		if drained.Load() != int64(thunks-1) {
			t.Fatalf("thunks=%d: %d drained", thunks, drained.Load())
		}
	}
}

// TestRecoveredIdempotent: re-panicked PanicErrors keep the original stack
// instead of being wrapped again.
func TestRecoveredIdempotent(t *testing.T) {
	if Recovered(nil) != nil {
		t.Fatal("Recovered(nil) != nil")
	}
	orig := &PanicError{Value: "x", Stack: []byte("original stack")}
	if got := Recovered(orig); got != orig {
		t.Fatal("Recovered rewrapped a PanicError")
	}
	// Nested fan-out: a panic crossing two Ranges layers surfaces once.
	var pe *PanicError
	func() {
		defer func() { pe = Recovered(recover()) }()
		Ranges(2, 2, func(w, lo, hi int) {
			Ranges(2, 2, func(w2, lo2, hi2 int) {
				if w == 0 && w2 == 0 {
					panic("deep")
				}
			})
		})
	}()
	if pe == nil || pe.Value != "deep" {
		t.Fatalf("nested panic = %+v", pe)
	}
}

// TestChunksCoversEachIndexOnce: every index of [0, n) is visited exactly
// once, chunk indices are dense, and chunk c's range lies directly below
// chunk c+1's — including n below the chunk count, more workers than
// chunks, and an empty input.
func TestChunksCoversEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 500} {
		for _, n := range []int{0, 1, 5, 63, 64, 1000, 12345} {
			chunks := NumChunks(workers, n)
			if chunks > n || (n > 0 && chunks < 1) {
				t.Fatalf("workers=%d n=%d: NumChunks = %d", workers, n, chunks)
			}
			visits := make([]atomic.Int32, n)
			los := make([]int, chunks)
			his := make([]int, chunks)
			var calls atomic.Int32
			Chunks(workers, n, func(worker, chunk, lo, hi int) {
				if worker < 0 || worker >= workers {
					t.Errorf("workers=%d n=%d: worker index %d", workers, n, worker)
				}
				calls.Add(1)
				los[chunk], his[chunk] = lo, hi
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
			})
			if int(calls.Load()) != chunks {
				t.Fatalf("workers=%d n=%d: %d calls for %d chunks", workers, n, calls.Load(), chunks)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
			for c := 0; c < chunks; c++ {
				if los[c] >= his[c] {
					t.Fatalf("workers=%d n=%d: chunk %d is empty [%d, %d)", workers, n, c, los[c], his[c])
				}
				if c > 0 && los[c] != his[c-1] {
					t.Fatalf("workers=%d n=%d: chunk %d starts at %d, chunk %d ends at %d",
						workers, n, c, los[c], c-1, his[c-1])
				}
			}
		}
	}
}

// TestChunksOutputsConcatenateInOrder: per-chunk outputs written by
// whichever worker pulled the chunk concatenate into the ascending input,
// whatever the interleaving.
func TestChunksOutputsConcatenateInOrder(t *testing.T) {
	const n = 5000
	for _, workers := range []int{1, 2, 4} {
		out := make([][]int, NumChunks(workers, n))
		Chunks(workers, n, func(_, chunk, lo, hi int) {
			for i := lo; i < hi; i++ {
				out[chunk] = append(out[chunk], i)
			}
		})
		next := 0
		for _, o := range out {
			for _, v := range o {
				if v != next {
					t.Fatalf("workers=%d: got %d, want %d", workers, v, next)
				}
				next++
			}
		}
		if next != n {
			t.Fatalf("workers=%d: concatenation has %d of %d indices", workers, next, n)
		}
	}
}

// TestChunksPanicDrains: a panicking chunk re-raises once as a
// *PanicError on the caller, and only after every other worker has left
// fn — no chunk is still running when the caller recovers.
func TestChunksPanicDrains(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		chunks := NumChunks(workers, 1000)
		panicAt := chunks / 2
		var running, finished atomic.Int64
		var pe *PanicError
		func() {
			defer func() { pe = Recovered(recover()) }()
			Chunks(workers, 1000, func(_, chunk, _, _ int) {
				running.Add(1)
				defer running.Add(-1)
				if chunk == panicAt {
					panic("chunk boom")
				}
				finished.Add(1)
			})
			t.Fatalf("workers=%d: no panic propagated", workers)
		}()
		if pe == nil || pe.Value != "chunk boom" {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
		if r := running.Load(); r != 0 {
			t.Fatalf("workers=%d: %d chunks still running after the re-panic", workers, r)
		}
		// Every chunk pulled before the panicking one ran to completion;
		// the panicking one never finishes.
		if f := finished.Load(); f < int64(panicAt) || f >= int64(chunks) {
			t.Fatalf("workers=%d: %d chunks finished", workers, f)
		}
	}
}
