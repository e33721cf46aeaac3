package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1), or
// an error when fewer than minBeyond samples lie beyond it: a tail
// percentile resting on a handful of samples is noise, not a figure.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", 100*p, minBeyond, max(n-rank, 0), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (mean of the two middle ones
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The metrics BENCHMARK.json names. Every workload reports all of
// endToEnd in its timed run and all of perLayer in its traced run, so a
// name means the same in each workload. The other figures a workload
// measures (its own layers, the service's latencies and rates) are
// printed by name but kept out of the JSON line.
var (
	endToEnd = []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mib"}
	perLayer = []string{"untraced.wall_s", "traced.wall_s", "runtime.gc_cpu_ms", "runtime.allocs", "runtime.alloc_mib", "host.steal_ms"}
)

// result is what one run prints: named metrics plus the op tally.
type result struct {
	names     []string // print order
	metrics   map[string]metric
	manifest  []string // the metrics of the JSON line; nil = all of them
	attempted int
	failed    int
	errs      []string // first few failure reasons
	notes     []string // noise accounting and other context lines
	setupS    float64  // median set-up time, reported by the timed run
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// pct sets a percentile metric; a percentile with too few samples beyond
// it fails the run instead of being reported.
func (r *result) pct(name string, xs []float64, p float64, unit string) {
	v, err := percentile(xs, p)
	if err != nil {
		r.attempted++
		r.fail(fmt.Errorf("%s: %w", name, err))
		return
	}
	r.set(name, v, unit)
}

// check counts one op, failed when err is non-nil.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *result) fail(err error) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one human-readable line per metric, the notes, any
// failures, and the closing JSON line. A manifest metric the run did not
// measure fails the run.
func (r *result) print(w io.Writer) error {
	line := r.metrics
	if r.manifest != nil {
		line = map[string]metric{}
		for _, n := range r.manifest {
			m, ok := r.metrics[n]
			if !ok {
				r.attempted++
				r.fail(fmt.Errorf("%s: not measured", n))
				continue
			}
			line[n] = m
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "FAIL %s\n", e)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %s ratio (%d of %d ops)\n", "fail_frac", strconv.FormatFloat(frac, 'g', -1, 64), r.failed, r.attempted)
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-32s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	enc, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, line})
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", enc)
	return err
}

// usage is a process-level resource snapshot: CPU from getrusage, GC
// CPU from runtime/metrics, GC cycles and allocations from MemStats (the
// counts testing's allocs/op uses), steal from /proc/stat.
type usage struct {
	cpu      time.Duration
	gcCPU    float64 // seconds
	gcCycles uint64
	allocs   uint64
	allocB   uint64
	stealMS  float64
	wall     time.Time
}

func readUsage() usage {
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{
		cpu:      cpuTime(),
		gcCPU:    gc[0].Value.Float64(),
		gcCycles: uint64(m.NumGC),
		allocs:   m.Mallocs,
		allocB:   m.TotalAlloc,
		stealMS:  hostStealMS(),
		wall:     time.Now(),
	}
}

// hostStealMS reads the machine-wide steal time from /proc/stat (0 where
// the file is missing): time the hypervisor ran someone else while this
// VM wanted a CPU.
func hostStealMS() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0
	}
	fields := strings.Fields(sc.Text()) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0
	}
	return ticks * 10 // USER_HZ is 100 on Linux
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// laps splits one pass into consecutive segments, timing the wall and
// process CPU time between successive marks.
type laps struct {
	wall0     time.Time
	cpu0      time.Duration
	wall, cpu []float64 // seconds per segment
}

func startLaps() *laps { return &laps{wall0: time.Now(), cpu0: cpuTime()} }

func (l *laps) mark() {
	now, cpu := time.Now(), cpuTime()
	l.wall = append(l.wall, now.Sub(l.wall0).Seconds())
	l.cpu = append(l.cpu, (cpu - l.cpu0).Seconds())
	l.wall0, l.cpu0 = now, cpu
}

// minPasses is the fewest passes a report or matrix run makes, so that
// each segment's median has a majority to outvote a burst.
const minPasses = 3

// roomFor reports whether a closed loop that started at start, with
// budget to spend, has room for another pass like the last of passes.
// The first minPasses passes always run.
func roomFor(start time.Time, budget time.Duration, passes []*laps) bool {
	if len(passes) < minPasses {
		return true
	}
	last := 0.0
	for _, w := range passes[len(passes)-1].wall {
		last += w
	}
	return time.Since(start).Seconds()+last <= budget.Seconds()
}

// passEstimate estimates one pass's wall and CPU time from several
// passes of identical work: the sum over segments of each segment's
// median across passes. A burst of interference (steal, a neighbour's
// cache traffic) that hits one segment of one pass is outvoted by the
// other passes, where a median of whole-pass totals would keep it
// whenever it lands in the middle pass. Passes that split into
// different segment counts fall back to the median of totals.
func passEstimate(passes []*laps) (wall, cpu float64) {
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	segmentMedians := func(get func(*laps) []float64) float64 {
		n := len(get(passes[0]))
		for _, p := range passes {
			if len(get(p)) != n {
				totals := make([]float64, len(passes))
				for i, q := range passes {
					totals[i] = sum(get(q))
				}
				return median(totals)
			}
		}
		t := 0.0
		col := make([]float64, len(passes))
		for j := 0; j < n; j++ {
			for i, p := range passes {
				col[i] = get(p)[j]
			}
			t += median(col)
		}
		return t
	}
	return segmentMedians(func(l *laps) []float64 { return l.wall }), segmentMedians(func(l *laps) []float64 { return l.cpu })
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// noise records the noise accounting of the interval since u0 as notes,
// so a noisy run can be explained from its own output.
func (r *result) noise(u0 usage) {
	u1 := readUsage()
	r.note("noise: wall %.3fs cpu %.3fs host.steal %.0fms gc_cpu %.1fms gc_cycles %d allocs %d alloc %.1fMiB GOMAXPROCS %d nproc %d",
		u1.wall.Sub(u0.wall).Seconds(), (u1.cpu - u0.cpu).Seconds(), u1.stealMS-u0.stealMS,
		1000*(u1.gcCPU-u0.gcCPU), u1.gcCycles-u0.gcCycles, u1.allocs-u0.allocs,
		float64(u1.allocB-u0.allocB)/(1<<20), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// runtimeLayer sets the runtime and host per-layer metrics of the
// interval since u0.
func (r *result) runtimeLayer(u0 usage) {
	u1 := readUsage()
	r.set("runtime.gc_cpu_ms", 1000*(u1.gcCPU-u0.gcCPU), "ms")
	r.set("runtime.allocs", float64(u1.allocs-u0.allocs), "count")
	r.set("runtime.alloc_mib", float64(u1.allocB-u0.allocB)/(1<<20), "MiB")
	r.set("host.steal_ms", u1.stealMS-u0.stealMS, "ms")
}

// passes sets wall_s and cpu_s from the run's passes and notes the
// per-pass totals beside the estimate.
func (r *result) passes(what string, passes []*laps) {
	wall, cpu := passEstimate(passes)
	var totals []string
	for _, p := range passes {
		t := 0.0
		for _, w := range p.wall {
			t += w
		}
		totals = append(totals, strconv.FormatFloat(t, 'f', 3, 64))
	}
	r.note("%s: %d passes of %d segments, pass wall totals %s s", what, len(passes), len(passes[0].wall), strings.Join(totals, " "))
	r.set("wall_s", wall, "s")
	r.set("cpu_s", cpu, "s")
}
