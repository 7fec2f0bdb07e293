package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop is the outcome of one load phase, indexed by request.
type openLoop struct {
	// lat is each request's latency. An open-loop phase times it from
	// when the request was due, so a stall also charges the requests
	// queued behind it; a closed-loop phase from when it was sent.
	lat []time.Duration
	// lag is how late each request was sent: send time minus due time
	// (zero in a closed-loop phase).
	lag  []time.Duration
	errs []error
}

// runOpenLoop sends n requests at a fixed rate from conns workers: request
// i is due at start + i/rate whatever happened to earlier ones. A request
// whose due time passes while every worker is busy waits for the next
// free one, and that wait shows in both its lag and its latency. do is
// called once per request index, from the worker goroutines.
func runOpenLoop(rate float64, n, conns int, do func(i int) error) openLoop {
	res := openLoop{
		lat:  make([]time.Duration, n),
		lag:  make([]time.Duration, n),
		errs: make([]error, n),
	}
	start := time.Now()
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	work := make(chan int) // unbuffered: a request waits here while every worker is busy
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d := due(i)
				res.lag[i] = time.Since(d)
				res.errs[i] = do(i)
				res.lat[i] = time.Since(d)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if w := time.Until(due(i)); w > 0 {
			time.Sleep(w)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return res
}

// runClosedLoop sends n requests from conns workers, each sending its
// next request as soon as the previous one returns, and returns the
// outcome (latency timed from each send) and the wall time of the whole.
func runClosedLoop(n, conns int, do func(i int) error) (openLoop, time.Duration) {
	res := openLoop{
		lat:  make([]time.Duration, n),
		lag:  make([]time.Duration, n),
		errs: make([]error, n),
	}
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				res.errs[i] = do(i)
				res.lat[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return res, time.Since(start)
}

// failures counts the requests that returned an error.
func (o openLoop) failures() int {
	n := 0
	for _, err := range o.errs {
		if err != nil {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the requests that succeeded.
func (o openLoop) okLatencies() []time.Duration {
	out := make([]time.Duration, 0, len(o.lat))
	for i, d := range o.lat {
		if o.errs[i] == nil {
			out = append(out, d)
		}
	}
	return out
}
