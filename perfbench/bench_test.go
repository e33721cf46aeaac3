package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, x := range ms {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(m.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the benchmark reports %v", got, endToEnd)
	}
	if got := names(m.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, the benchmark reports %v", got, perLayer)
	}
}

func TestJSONLineHoldsTheManifest(t *testing.T) {
	r := newResult()
	r.manifest = []string{"wall_s", "cpu_s"}
	r.check(nil)
	r.set("wall_s", 1.5, "s")
	r.set("job_ms.p50", 3, "ms")
	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("a manifest metric that was not measured did not fail the run: %+v", res)
	}
	if _, ok := res.Metrics["job_ms.p50"]; ok || len(res.Metrics) != 1 {
		t.Errorf("JSON metrics %v, want wall_s alone", res.Metrics)
	}
	if !strings.Contains(out.String(), "job_ms.p50") {
		t.Error("a metric outside the manifest was not printed as a line")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},  // rank 10, 9 beyond
		{20, 0.5, true, 10},  // rank 10, 10 beyond
		{99, 0.9, false, 0},  // rank 90, 9 beyond
		{100, 0.9, true, 90}, // rank 90, 10 beyond
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, ok=%v", c.n, c.p, got, err, c.want, c.ok)
		}
	}
}

func TestPercentileFailsTheRun(t *testing.T) {
	r := newResult()
	r.pct("hit_ms.p99", make([]float64, 50), 0.99, "ms")
	if _, ok := r.metrics["hit_ms.p99"]; ok || r.failed != 1 {
		t.Fatalf("a p99 of 50 samples was reported (failed=%d)", r.failed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: [10,50) covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "d", Start: 12, End: 18, Parent: 1},  // grandchild: counts against a only
		{Name: "other", Start: 0, End: 7, Parent: -1},
	}
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestPassEstimateOutvotesABurst(t *testing.T) {
	pass := func(seg ...float64) *laps { return &laps{wall: seg, cpu: seg} }
	// A 5 s stall lands in the second segment of the middle pass.
	passes := []*laps{pass(1, 2, 3), pass(1, 7, 3), pass(1.1, 2, 3)}
	wall, cpu := passEstimate(passes)
	if math.Abs(wall-6) > 1e-9 || math.Abs(cpu-6) > 1e-9 {
		t.Fatalf("estimate = %g s wall, %g s cpu; want 6", wall, cpu)
	}
	// Passes of different shapes fall back to the median total.
	wall, _ = passEstimate([]*laps{pass(1, 2), pass(4), pass(2, 3)})
	if wall != 4 {
		t.Fatalf("fallback estimate = %g, want 4", wall)
	}
}

func TestDigestFlagsOneByteChange(t *testing.T) {
	data := []byte("# Reproduction report (seed 7, quick=true)\n")
	p := pins{7: digest(data)}
	if err := p.check(7, data); err != nil {
		t.Fatalf("pinned bytes rejected: %v", err)
	}
	for i := range data {
		bad := bytes.Clone(data)
		bad[i] ^= 1
		if p.check(7, bad) == nil {
			t.Fatalf("a flipped bit at byte %d passed the digest check", i)
		}
	}
	if err := p.check(8, []byte("anything")); err != nil {
		t.Fatalf("an unpinned seed failed: %v", err)
	}
}

// fakeReport is a report-shaped text for an unpinned seed.
func fakeReport(seed uint64) []byte {
	var b strings.Builder
	b.WriteString(reportHeader(seed))
	for i := 1; i <= 8; i++ {
		fmt.Fprintf(&b, "\n## E%d — section\n- value %d\n", i, i)
	}
	return []byte(b.String())
}

func TestCorruptPassCountsAsFailed(t *testing.T) {
	const seed = 99
	good := fakeReport(seed)
	bad := bytes.Clone(good)
	bad[len(bad)-2] ^= 1
	r := newResult()
	r.check(samePass("report", seed, nil, good, checkReport))
	r.check(samePass("report", seed, good, good, checkReport))
	r.check(samePass("report", seed, good, bad, checkReport))
	if r.attempted != 3 || r.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", r.attempted, r.failed)
	}
	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "fail_frac") {
		t.Fatalf("a failed op did not mark the run incorrect:\n%s", out.String())
	}
	if err := sameBytes("cache hit", bad, good); err == nil {
		t.Fatal("a corrupted cache hit compared equal")
	}
	if err := checkReport(seed, fakeReport(seed+1)); err == nil {
		t.Fatal("a report for another seed passed the header check")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	if reportHeader(1) == reportHeader(2) {
		t.Fatal("report header does not depend on the seed")
	}
	keys := func(seed uint64, spec func(uint64, int) uint64) map[uint64]bool {
		out := map[uint64]bool{}
		for i := 0; i < 200; i++ {
			out[spec(seed, i)] = true
		}
		return out
	}
	writer := func(seed uint64, i int) uint64 { return writerSpec(seed, i).Fuzz.RootSeed }
	pool := func(seed uint64, i int) uint64 { return poolSpec(seed, i).Fuzz.RootSeed }
	a, b, p := keys(1, writer), keys(2, writer), keys(1, pool)
	if len(a) != 200 {
		t.Fatalf("writer specs repeat: %d distinct of 200", len(a))
	}
	for k := range a {
		if b[k] || p[k] {
			t.Fatalf("root seed %d is shared between seeds or between writer and pool", k)
		}
	}
	if writerSpec(1, 5).Fuzz.RootSeed != writerSpec(1, 5).Fuzz.RootSeed {
		t.Fatal("writer specs are not a function of the seed")
	}
}

// The tests below run real workloads (seconds each).

func TestReportMatchesDuireport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full report pass")
	}
	text := reportPass(newReportInputs(defaultSeed), nil, nil, 0)
	if err := checkReport(defaultSeed, text); err != nil {
		t.Fatal(err)
	}
	text[len(text)/2] ^= 1
	if checkReport(defaultSeed, text) == nil {
		t.Fatal("a one-byte change to the report passed")
	}
}

func TestMatrixMatchesRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full matrix pass")
	}
	plan, err := newMatrixPlan(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := plan.execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.check(defaultSeed, raw); err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if plan.check(defaultSeed, raw) == nil {
		t.Fatal("a one-byte change to the matrix passed")
	}
}

func TestServiceRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the service workload for three seconds, twice")
	}
	for _, traced := range []bool{false, true} {
		r := newResult()
		runService(opts{workload: "service", seed: 3, seconds: 3 * time.Second, trace: traced, state: t.TempDir()}, r)
		// A slow build (-race) may complete too few jobs for a tail
		// percentile; any other failure is a broken check.
		thin := 0
		for _, e := range r.errs {
			if strings.Contains(e, "samples beyond") {
				thin++
			}
		}
		if r.attempted == 0 || r.failed != thin {
			t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, r.failed, r.attempted, r.errs)
		}
		want := append([]string{"hit_ms.p50"}, endToEnd[1:]...) // setup_s is set by main
		if traced {
			want = append([]string{"cache.get_us.p50"}, perLayer...)
		}
		for _, n := range want {
			if _, ok := r.metrics[n]; !ok {
				t.Fatalf("traced=%v: %s missing from %v", traced, n, r.names)
			}
		}
	}
}
