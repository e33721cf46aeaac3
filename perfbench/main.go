// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload (report, matrix or service) for a
// fixed time at a given seed, checks every output, and prints each
// metric by name with its unit, then one JSON line:
//
//	perfbench -workload report -seed 1 -seconds 20 -trace 0
//
// -trace 0 is the timed run (end-to-end metrics, no spans); -trace 1 is
// the separate traced run (per-layer metrics from spans recorded around
// calls into each module). The exit status is nonzero when any output
// check fails. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// opts is one invocation's configuration.
type opts struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	state    string // scratch directory for server state and span files
}

var workloads = map[string]func(opts, *result){
	"report":  runReport,
	"matrix":  runMatrix,
	"service": runService,
}

func main() {
	var o opts
	var secs, traced int
	flag.StringVar(&o.workload, "workload", "report", "workload: report, matrix or service")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	flag.IntVar(&secs, "seconds", 30, "how long the timed body runs")
	flag.IntVar(&traced, "trace", 0, "1 = traced run (per-layer metrics), 0 = timed run (end-to-end metrics)")
	flag.StringVar(&o.state, "state", filepath.Join(".bench_build", "state"), "scratch directory for server state and spans")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traced == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, secs, traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r := newResult()
	r.manifest = endToEnd
	if o.trace {
		r.manifest = perLayer
	}
	r.note("workload %s seed %d seconds %d trace %d", o.workload, o.seed, secs, traced)
	run(o, r)
	if !o.trace {
		r.set("setup_s", r.setupS, "s")
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.failed > 0 || r.attempted == 0 {
		os.Exit(1)
	}
}

// Set-up repetitions: at least minSetups, and more until setupBudget is
// spent, so a set-up of a few microseconds is still a median of many.
const (
	minSetups   = 9
	setupBudget = 250 * time.Millisecond
)

// setup runs fn repeatedly and records the median as setup_s (timed run
// only). fn must leave the state of its last call ready for the run;
// teardown, if non-nil, releases the previous call's state before the
// next call, untimed. A failing set-up fails the run.
//
// Set-up runs on one P. The service's set-up is a chain of hand-offs
// between client, handler and worker goroutines; on two vCPUs of a busy
// shared host the same set-up took up to 1.5x as long as on one P and
// drew several times the host steal, so its time followed the host's
// load more than the work.
func (r *result) setup(fn func() error, teardown func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var times []float64
	steal0 := hostStealMS()
	start := time.Now()
	for len(times) < minSetups || time.Since(start) < setupBudget {
		if len(times) > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		err := fn()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			r.check(fmt.Errorf("set-up: %w", err))
			return
		}
	}
	r.note("set-up: median of %d, each %s s, host.steal %.0fms", len(times), strings.Trim(fmt.Sprintf("%.4f", times), "[]"), hostStealMS()-steal0)
	r.setupS = median(times)
}

// spans writes the traced run's spans under the state directory.
func (r *result) spans(o opts, tr *tracer) {
	path := filepath.Join(o.state, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		r.check(err)
		return
	}
	r.note("spans: %d written to %s", len(tr.snapshot()), path)
}
