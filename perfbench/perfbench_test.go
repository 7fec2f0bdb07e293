package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"metablocking/internal/incremental"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// A handler that stalls one request must charge the stall to the
// requests queued behind it: latency runs from the due time, and the
// generator reports how late it sent them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	out := runOpenLoop(200, 40, 1, func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	// Requests 6.. were due every 5 ms while request 5 held the only
	// connection, so request 6 was sent about 75 ms late.
	if out.lag[6] < stall/2 {
		t.Errorf("lag of the request behind the stall = %v, want ≥ %v", out.lag[6], stall/2)
	}
	if out.lat[6] < out.lag[6] {
		t.Errorf("latency %v is shorter than the send lag %v: not timed from the due time", out.lat[6], out.lag[6])
	}
	for i := range out.lat {
		if out.lat[i] < out.lag[i] {
			t.Fatalf("request %d: latency %v below lag %v", i, out.lat[i], out.lag[i])
		}
	}
	if out.lag[2] > stall/4 {
		t.Errorf("lag before the stall = %v, want small", out.lag[2])
	}
	if out.failures() != 0 {
		t.Errorf("failures = %d", out.failures())
	}

	failing := runOpenLoop(1000, 10, 2, func(i int) error {
		if i == 3 {
			return errors.New("refused")
		}
		return nil
	})
	if failing.failures() != 1 || len(failing.okLatencies()) != 9 {
		t.Errorf("failures = %d, ok = %d; want 1, 9", failing.failures(), len(failing.okLatencies()))
	}
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	var sent [50]atomic.Int32
	out, wall := runClosedLoop(len(sent), 3, func(i int) error {
		sent[i].Add(1)
		time.Sleep(time.Millisecond)
		return nil
	})
	for i := range sent {
		if sent[i].Load() != 1 {
			t.Errorf("request %d sent %d times", i, sent[i].Load())
		}
		if out.lat[i] < time.Millisecond {
			t.Errorf("request %d latency %v below its 1 ms handler", i, out.lat[i])
		}
	}
	// Three connections share 50 requests of 1 ms each.
	if wall < 16*time.Millisecond {
		t.Errorf("wall %v: requests overlapped beyond three connections", wall)
	}
}

func TestMetricNames(t *testing.T) {
	if err := checkDefs(endToEnd, 16); err != nil {
		t.Errorf("end-to-end: %v", err)
	}
	if err := checkDefs(perLayer, 128); err != nil {
		t.Errorf("per-layer: %v", err)
	}
	for _, bad := range []string{"", "_x", "has space", "x/y", strings.Repeat("a", 65)} {
		if checkDefs([]metricDef{{Name: bad, Unit: "s", Better: "lower"}}, 1) == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
	if checkDefs([]metricDef{{Name: "a", Unit: "s", Better: "lower"}, {Name: "a", Unit: "s", Better: "lower"}}, 2) == nil {
		t.Error("duplicate name accepted")
	}
	if checkDefs(make([]metricDef, 17), 16) == nil {
		t.Error("17 metrics accepted under a limit of 16")
	}
	var setup *metricDef
	for i, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("setup_s missing or mis-declared: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics perfbench emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, perfbench %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, perfbench %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

func TestEmitReportsEveryMetric(t *testing.T) {
	r := newResult()
	r.attempted = 3
	r.set("setup_s", 1.5)
	var buf bytes.Buffer
	if err := r.emit(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	var line resultLine
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct || line.Attempted != 3 || len(line.Metrics) != len(endToEnd) {
		t.Errorf("line = %+v", line)
	}
	if m := line.Metrics["setup_s"]; m.Value != 1.5 || m.Unit != "s" {
		t.Errorf("setup_s = %+v", m)
	}
	r.set("p50_ms", math.NaN())
	buf.Reset()
	if err := r.emit(&buf, endToEnd); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil || line.Correct {
		t.Errorf("a NaN metric left the run correct (err %v)", err)
	}
}

// The replay check must accept the resolver's own answers and catch any
// perturbation of a candidate list.
func TestReplayCheckCatchesPerturbation(t *testing.T) {
	ps := generate(0.02, 7).Collection.Profiles
	half := len(ps) / 2
	snap := buildSnapshot(resolverConfig, ps[:half])
	res, err := incremental.FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got []answer
	withCands := -1
	for _, p := range ps[half:] {
		id, cands := res.Add(p)
		if len(cands) >= 2 && withCands < 0 {
			withCands = len(got)
		}
		got = append(got, answer{id: int(id), cands: cands})
	}
	if withCands < 0 {
		t.Fatal("no arrival has two candidates")
	}
	if err := replayCheck(snap, ps[half:], got); err != nil {
		t.Fatalf("unperturbed answers rejected: %v", err)
	}
	perturb := func(name string, f func(a *answer)) {
		bad := append([]answer(nil), got...)
		a := bad[withCands]
		a.cands = append([]incremental.Candidate(nil), a.cands...)
		f(&a)
		bad[withCands] = a
		if replayCheck(snap, ps[half:], bad) == nil {
			t.Errorf("%s not caught", name)
		}
	}
	perturb("a weight one ulp off", func(a *answer) {
		a.cands[0].Weight = math.Nextafter(a.cands[0].Weight, 2)
	})
	perturb("two candidates swapped", func(a *answer) { a.cands[0], a.cands[1] = a.cands[1], a.cands[0] })
	perturb("a dropped candidate", func(a *answer) { a.cands = a.cands[1:] })
	perturb("a changed candidate id", func(a *answer) { a.cands[1].ID++ })
	perturb("a changed assigned id", func(a *answer) { a.id++ })
}

func TestInIDOrder(t *testing.T) {
	got := []served{{arrival: 0, ans: answer{id: 11}}, {arrival: 1, ans: answer{id: 10}}, {arrival: 2, ans: answer{id: 12}}}
	out, err := inIDOrder(10, got)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].arrival != 1 || out[1].arrival != 0 || out[2].arrival != 2 {
		t.Errorf("order = %+v", out)
	}
	if _, err := inIDOrder(10, got[:1]); err == nil {
		t.Error("a gap at id 10 was not reported")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("server.http", -1, 1, at(0), at(10))
	mid := tr.add("server.resolve", root, 1, at(2), at(9))
	tr.add("incremental.add", mid, 1, at(3), at(5))
	tr.add("store.wal_sync", mid, 1, at(5), at(6))
	self := tr.selfTime()
	want := map[string]time.Duration{
		"server":      10*time.Millisecond - 7*time.Millisecond + 7*time.Millisecond - 3*time.Millisecond,
		"incremental": 2 * time.Millisecond,
		"store":       time.Millisecond,
	}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self(%s) = %v, want %v", l, self[l], d)
		}
	}
}
