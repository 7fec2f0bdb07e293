// Command perfbench is the repository's benchmark. It generates a
// workload's input from a seed, drives the system from outside through
// its stable surfaces (the root metablocking API and the HTTP API of
// internal/server), checks every output, and prints one JSON result line:
//
//	perfbench -workload serve -seed 1 -seconds 25 -trace 0
//
// With -trace 1 it instead makes the traced run: the same workload with
// spans recorded around calls into each layer's public functions, plus
// serial replays against standalone backends, and prints the per-layer
// metrics. Build and run it through run.sh; README.md explains the
// workloads, the metrics and how to read a trace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	host     hostStamp
}

// writeTrace stores the run's spans under the work directory, after a
// first line holding the host stamp.
func (o options) writeTrace(t *tracer) error {
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	head, err := json.Marshal(map[string]any{"host": o.host})
	if err != nil {
		return err
	}
	if err := t.write(path, head); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, options) (*result, error){
	"pipeline": runPipeline,
	"serve":    runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code: 0 when every
// check passed, 1 when a check failed (the result line still prints,
// with correct false), 2 when the run could not be made.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: pipeline or serve")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&seconds, "seconds", 25, "measured time of the run")
	fs.IntVar(&trace, "trace", 0, "1 makes the traced run and prints the per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for traces and disk indexes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -seconds ≥ 1 and -trace 0 or 1\n", names)
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o.host = stamp(o.workload, o.seed, loadConns())
	head, _ := json.Marshal(o.host)
	fmt.Fprintf(stdout, "host %s\n", head)
	for _, f := range o.host.Flags {
		fmt.Fprintf(stderr, "perfbench: WARNING: %s\n", f)
	}

	res, err := w(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, line := range res.report {
		fmt.Fprintln(stderr, "  "+line)
	}
	for _, name := range sortedNames(res.values) {
		fmt.Fprintf(stderr, "  %-36s %g\n", name, res.values[name])
	}
	var out bytes.Buffer
	if err := res.emit(&out, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: CHECK FAILED:", p)
	}
	stdout.Write(out.Bytes())
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// loadConns is how many connections and client goroutines the load
// generator uses: one per CPU.
func loadConns() int { return runtime.NumCPU() }
