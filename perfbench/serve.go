package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"metablocking/internal/entity"
	"metablocking/internal/incremental"
	"metablocking/internal/server"
)

// nominalRate is the open-loop rate p50_ms is measured at: on a 2-vCPU
// host a sixth of the server's closed-loop throughput, so that queueing
// for the nproc connections stays rare and the median shows the server,
// not the queue.
const nominalRate = 100.0

// saturationArrivals is how many requests the closed-loop throughput
// phase sends: a fixed amount of work.
const saturationArrivals = 1500

// The disk-backed replay of the traced run: one shard per CPU, a memtable
// budget small enough for several seal and compaction cycles per run, a
// page cache far below the sealed posting bytes, and the server's
// default compaction trigger.
const (
	diskMemtable     = 128 << 10
	diskCache        = 32 << 10
	diskCompactAfter = 4
)

// segment is a run of arrivals that started from the preload snapshot:
// every reload opens a new one. Its answers must replay bit-identically.
type segment struct {
	first int // the first ID the segment assigned: the preload size
	got   []served
	// arrivalOf maps an assigned ID back to its arrival index.
	arrivalOf map[int]int
}

// serveEnv is a running server on a loopback port and the client that
// drives it.
type serveEnv struct {
	in       *serveInput
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	conns    int
	// next is the next unused arrival of the current segment.
	next int
	segs []*segment
	// acked is the user bytes the serving index holds: the preload plus
	// every arrival answered since the last reload.
	acked atomic.Int64
}

// startServe starts the server, preloads the snapshot through Reload and
// listens on a loopback port.
func startServe(in *serveInput, conns int) (*serveEnv, error) {
	srv, err := server.New(server.Config{Resolver: resolverConfig})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{in: in, srv: srv, conns: conns}
	if err := e.reload(); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: srv.Handler()}
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.hs.Serve(ln) }()
	e.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return e, nil
}

// close stops the HTTP server and the serving index and waits for both.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.client.CloseIdleConnections()
	return errors.Join(err, e.srv.Close())
}

// reload restores the preload snapshot and opens a new segment.
func (e *serveEnv) reload() error {
	n, err := e.srv.Reload(e.in.snap)
	if err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	if n != e.in.preload {
		return fmt.Errorf("reload: %d profiles, want %d", n, e.in.preload)
	}
	e.next = 0
	e.acked.Store(profileBytes(e.in.snap.Profiles))
	e.segs = append(e.segs, &segment{first: n, arrivalOf: make(map[int]int)})
	return nil
}

// resolveResponse is the JSON body of a successful POST /v1/resolve.
type resolveResponse struct {
	ID         int  `json:"id"`
	Degraded   bool `json:"degraded"`
	Candidates []struct {
		ID     int     `json:"id"`
		Weight float64 `json:"weight"`
	} `json:"candidates"`
}

// post sends arrival i and returns the raw response body.
func (e *serveEnv) post(i int) ([]byte, error) {
	resp, err := e.client.Post(e.base+"/v1/resolve", "application/json", bytes.NewReader(e.in.bodies[i]))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func decodeAnswer(body []byte) (answer, error) {
	var rr resolveResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return answer{}, err
	}
	if rr.Degraded {
		return answer{}, errors.New("degraded answer")
	}
	a := answer{id: rr.ID, cands: make([]incremental.Candidate, len(rr.Candidates))}
	for j, c := range rr.Candidates {
		a.cands[j] = incremental.Candidate{ID: entity.ID(c.ID), Weight: c.Weight}
	}
	return a, nil
}

// phaseSpec says how a phase sends its requests: over HTTP, or
// alternating between HTTP and the in-process Server.Resolve (odd
// requests in-process), and whether it records a span per request:
// "server.http" or "server.resolve".
type phaseSpec struct {
	mixed bool
	tr    *tracer
}

// sendsInProcess reports whether request i of the phase bypasses HTTP.
func (s phaseSpec) sendsInProcess(i int) bool { return s.mixed && i%2 == 1 }

// phaseOut is one load phase's outcome, indexed by request.
type phaseOut struct {
	openLoop
	wall   time.Duration // closed-loop phases: the time to send them all
	base   int           // arrival index of request 0
	spans  []int32       // span of each request, when traced
	answer []answer
}

// phase sends n arrivals open-loop at rate, or closed-loop from every
// connection when rate is 0, and adds the answers to the current
// segment, reloading first when the segment has too few arrivals left.
func (e *serveEnv) phase(rate float64, n int, spec phaseSpec) (phaseOut, error) {
	if n > len(e.in.parsed) {
		return phaseOut{}, fmt.Errorf("phase of %d requests exceeds the %d arrivals", n, len(e.in.parsed))
	}
	if e.next+n > len(e.in.parsed) {
		if err := e.reload(); err != nil {
			return phaseOut{}, err
		}
	}
	out := phaseOut{base: e.next, spans: make([]int32, n), answer: make([]answer, n)}
	e.next += n
	raw := make([][]byte, n)
	ctx := context.Background()
	send := func(i int) error {
		arrival := out.base + i
		t0 := time.Now()
		var err error
		span := "server.http"
		if spec.sendsInProcess(i) {
			span = "server.resolve"
			var res server.Resolution
			res, err = e.srv.Resolve(ctx, e.in.parsed[arrival])
			if err == nil && res.Degraded {
				err = errors.New("degraded answer")
			}
			out.answer[i] = answer{id: int(res.ID), cands: res.Candidates}
		} else {
			raw[i], err = e.post(arrival)
		}
		if err == nil {
			e.acked.Add(e.in.bytes[arrival])
		}
		if spec.tr != nil {
			out.spans[i] = spec.tr.add(span, -1, int64(arrival), t0, time.Now())
		}
		return err
	}
	if rate > 0 {
		out.openLoop = runOpenLoop(rate, n, e.conns, send)
	} else {
		out.openLoop, out.wall = runClosedLoop(n, e.conns, send)
	}
	seg := e.segs[len(e.segs)-1]
	for i := range raw {
		if out.errs[i] == nil && !spec.sendsInProcess(i) {
			out.answer[i], out.errs[i] = decodeAnswer(raw[i])
		}
		if out.errs[i] == nil {
			seg.got = append(seg.got, served{arrival: out.base + i, ans: out.answer[i]})
			seg.arrivalOf[out.answer[i].id] = out.base + i
		}
	}
	return out, nil
}

// checkSegments replays every segment serially through a fresh resolver
// from the preload snapshot.
func (e *serveEnv) checkSegments(r *result) {
	for k, seg := range e.segs {
		ordered, err := inIDOrder(seg.first, seg.got)
		if err != nil {
			r.fail("serve segment %d: %v", k, err)
			continue
		}
		arrivals := make([]entity.Profile, len(ordered))
		answers := make([]answer, len(ordered))
		for i, s := range ordered {
			arrivals[i], answers[i] = e.in.parsed[s.arrival], s.ans
		}
		if err := replayCheck(e.in.snap, arrivals, answers); err != nil {
			r.fail("serve segment %d: %v", k, err)
		}
	}
}

// quality scores every answer of the run against the ground truth:
// found counts the duplicate pairs whose earlier member is among the
// later arrival's candidates, returned all candidates, and dups the
// pairs the answered arrivals could have found (their duplicates among
// the preloaded profiles).
func (e *serveEnv) quality() (found, returned, dups int) {
	for _, seg := range e.segs {
		dataID := func(id int) int {
			if a, ok := seg.arrivalOf[id]; ok {
				return e.in.preload + a
			}
			return id
		}
		answers := make([]answer, len(seg.got))
		for i, s := range seg.got {
			answers[i] = s.ans
			dups += e.in.dupsOf[entity.ID(e.in.preload+s.arrival)]
		}
		f, r := onlineQuality(answers, dataID, e.in.gt)
		found += f
		returned += r
	}
	return found, returned, dups
}

// runServe is the serve workload: the preloaded default server takes
// the rest of the stream as POST /v1/resolve requests from one
// connection per CPU.
func runServe(_ context.Context, o options) (*result, error) {
	r := newResult()
	conns := loadConns()
	var in *serveInput
	var env *serveEnv
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []float64
	for k := 0; k < repeats; k++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
			env, in = nil, nil
		}
		runtime.GC()
		d, err := timed(func() error {
			var err error
			if in, err = newServeInput(o.seed); err != nil {
				return err
			}
			env, err = startServe(in, conns)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer env.close()
	r.set("setup_s", median(setups))

	// Warm the connections and caches up before anything is timed.
	if _, err := env.phase(nominalRate, int(nominalRate), phaseSpec{}); err != nil {
		return nil, err
	}
	var err error
	if o.trace {
		replayDir := filepath.Join(o.workdir, fmt.Sprintf("disk-%d", os.Getpid()))
		defer os.RemoveAll(replayDir)
		err = serveTraced(r, env, o, replayDir)
	} else {
		err = serveMeasured(r, env, o)
	}
	if err != nil {
		return nil, err
	}
	env.checkSegments(r)
	found, returned, dups := env.quality()
	r.set("pc", ratio(float64(found), float64(dups)))
	r.set("pq", ratio(float64(found), float64(returned)))
	r.note("online_pc %.4f over %d ground-truth pairs of the answered arrivals", ratio(float64(found), float64(dups)), dups)
	// What the server keeps per user byte, with the benchmark's own copy
	// of the preload snapshot dropped first.
	ack := env.acked.Load()
	in.snap = nil
	r.set("space_amp", liveHeapBytes()/float64(ack))
	r.set("peak_rss_mb", peakRSSMB())
	return r, nil
}

// nominalRequests is the size of the nominal-rate phase: three quarters
// of the run, and at least 1000 requests, so the report's p99 has ten
// samples beyond it.
func nominalRequests(d time.Duration) int {
	return max(int(nominalRate*d.Seconds()*3/4), 1000)
}

// serveMeasured is the untraced run: the nominal-rate phase, then the
// closed-loop throughput over a fixed arrival count.
func serveMeasured(r *result, env *serveEnv, o options) error {
	n := nominalRequests(o.seconds)
	out, err := env.phase(nominalRate, n, phaseSpec{})
	if err != nil {
		return err
	}
	r.attempted += n
	r.failed += out.failures()
	lat := ms(out.okLatencies())
	r.set("p50_ms", median(lat))
	r.note("p50_ms %.3f p99_ms %.3f at %.0f rps open loop, %d connections, n=%d (timed from due time)",
		median(lat), percentile(lat, 99), nominalRate, env.conns, len(lat))
	r.note("latency p90 %.3f p95 %.3f p98 %.3f p99 %.3f max %.3f ms",
		percentile(lat, 90), percentile(lat, 95), percentile(lat, 98), percentile(lat, 99), percentile(lat, 100))
	r.note("fail_ratio %d/%d at the nominal rate", r.failed, r.attempted)
	r.note("loadgen lag p50 %.3f ms p99 %.3f ms", median(ms(out.lag)), percentile(ms(out.lag), 99))

	sat, err := env.phase(0, saturationArrivals, phaseSpec{})
	if err != nil {
		return err
	}
	if f := sat.failures(); f > 0 {
		return fmt.Errorf("%d of %d closed-loop requests failed", f, saturationArrivals)
	}
	tput := float64(saturationArrivals) / sat.wall.Seconds()
	r.set("throughput_per_s", tput)
	r.note("max_rps %.1f 1/s: closed loop, %d requests from %d connections in %v (p50 %.3f ms)",
		tput, saturationArrivals, env.conns, sat.wall.Round(time.Millisecond), median(ms(sat.lat)))
	return nil
}

// onlineQuality scores answers against the ground truth: found counts
// the duplicate pairs whose earlier member is among the later arrival's
// candidates, returned counts all candidates. dataID maps an index ID to
// the dataset's profile ID; answers[i] belongs to dataset profile
// dataID(answers[i].id).
func onlineQuality(answers []answer, dataID func(id int) int, gt *entity.GroundTruth) (found, returned int) {
	for _, a := range answers {
		b := entity.ID(dataID(a.id))
		for _, c := range a.cands {
			if gt.Contains(entity.ID(dataID(int(c.ID))), b) {
				found++
			}
		}
		returned += len(a.cands)
	}
	return found, returned
}
