package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"dui"
	"dui/internal/blink"
	"dui/internal/bnn"
	"dui/internal/conntrack"
	"dui/internal/dapper"
	"dui/internal/graph"
	"dui/internal/nethide"
	"dui/internal/pytheas"
	"dui/internal/ron"
	"dui/internal/sketch"
	"dui/internal/sppifo"
	"dui/internal/stats"
	"dui/internal/trace"
)

// The report workload is the body of `duireport -quick -parallel 1`:
// the header and sections E1–E8, calling the entry points duireport
// calls with the same arguments, so the text is byte-identical to the
// command's output (pinned in digests.go). Each call into a system
// module runs inside a span named after the module; with a nil tracer
// the spans cost a nil check.

// reportLayers are the module spans of a report pass.
var reportLayers = []string{"blink", "pcc", "pytheas", "sketch", "sppifo", "ron", "dapper", "conntrack", "bnn", "nethide"}

// reportProbe is the traced run's state for one pass: the tracer, E1's
// Fig 2 result for the replay, and the heap allocations made inside
// sketch spans.
type reportProbe struct {
	tr           *tracer
	fig2         *blink.Fig2Result
	sketchAllocs uint64
}

// section is what one report section needs besides the seed: its
// inputs, and either the traced run's probe or the timed run's laps.
type section struct {
	in     *reportInputs
	probe  *reportProbe // nil in the timed run
	laps   *laps        // nil in the traced run
	parent int          // the section's span
	op     int
}

// call runs one call into module layer: in the timed run between two
// lap marks, in the traced run inside a span.
func (s section) call(layer, label string, f func()) {
	if s.probe == nil {
		if s.laps != nil {
			s.laps.mark()
			defer s.laps.mark()
		}
		f()
		return
	}
	var m0, m1 runtime.MemStats
	if layer == "sketch" {
		runtime.ReadMemStats(&m0)
	}
	s.probe.tr.wrap(layer, label, s.parent, s.op, f)
	if layer == "sketch" {
		runtime.ReadMemStats(&m1)
		s.probe.sketchAllocs += m1.Mallocs - m0.Mallocs
	}
}

// reportInputs are the generated inputs of a report pass: the seed and
// the topologies and synthetic prefixes derived from it.
type reportInputs struct {
	seed     uint64
	header   string
	prefixes []trace.SurveyPrefix
	g        *graph.Graph
	pairs    []nethide.Pair
}

func newReportInputs(seed uint64) *reportInputs {
	g := dui.Abilene()
	return &reportInputs{
		seed:     seed,
		header:   reportHeader(seed),
		prefixes: dui.SyntheticSurvey(8, seed),
		g:        g,
		pairs:    nethide.AllPairs(g),
	}
}

func reportHeader(seed uint64) string {
	return fmt.Sprintf("# Reproduction report (seed %d, quick=true)\n", seed)
}

// reportPass produces one full report; probe and l may be nil.
func reportPass(in *reportInputs, probe *reportProbe, l *laps, op int) []byte {
	var tr *tracer
	if probe != nil {
		tr = probe.tr
	}
	var b bytes.Buffer
	b.WriteString(in.header)
	sections := []func(section, uint64) string{e1, e2, e3, e4, e5, e6, e7, e8}
	for i, sec := range sections {
		id := tr.begin(fmt.Sprintf("E%d", i+1), "", -1, op)
		b.WriteString(sec(section{in: in, probe: probe, laps: l, parent: id, op: op}, in.seed))
		tr.end(id)
	}
	return b.Bytes()
}

// checkReport validates a report's shape and, for a pinned seed, its
// digest.
func checkReport(seed uint64, text []byte) error {
	if !bytes.HasPrefix(text, []byte(reportHeader(seed))) {
		return fmt.Errorf("report: header does not name seed %d", seed)
	}
	for i := 1; i <= 8; i++ {
		if !bytes.Contains(text, []byte(fmt.Sprintf("\n## E%d — ", i))) {
			return fmt.Errorf("report: section E%d missing", i)
		}
	}
	if bytes.Contains(text, []byte("NaN")) {
		return fmt.Errorf("report: contains NaN")
	}
	return reportPins.check(seed, text)
}

func e1(s section, seed uint64) string {
	var b strings.Builder
	cfg := dui.Fig2Config{Seed: seed, Parallel: 1}
	cfg.Runs, cfg.Duration, cfg.LegitFlows = 4, 400, 2000
	var res *dui.Fig2Result
	s.call("blink", "RunFig2", func() { res = dui.RunFig2(cfg) })
	if s.probe != nil {
		s.probe.fig2 = res
	}
	var hits []float64
	missed := 0
	for _, h := range res.HitTimes {
		if math.IsNaN(h) {
			missed++
		} else {
			hits = append(hits, h)
		}
	}
	fmt.Fprintf(&b, "\n## E1 — Fig 2: malicious flows sampled by Blink\n")
	fmt.Fprintf(&b, "- parameters: tR=%.2fs (measured %.2fs), qm=%.4f, %d runs\n",
		res.Config.TR, res.MeasuredTR, res.Config.Qm, res.Config.Runs)
	fmt.Fprintf(&b, "- theory: E[hit 32 cells]=%.0fs (p5 %.0fs, p95 %.0fs); mean curve crosses 32 at %.0fs\n",
		res.TheoryExpectedHit, res.TheoryHitP5, res.TheoryHitP95, crossing(res.TheoryMean, 32))
	if len(hits) > 0 {
		fmt.Fprintf(&b, "- simulation: mean hit %.0fs, median %.0fs, p5 %.0fs, p95 %.0fs (%d/%d runs reached majority)\n",
			stats.Mean(hits), stats.Median(hits), stats.Quantile(hits, 0.05), stats.Quantile(hits, 0.95),
			len(hits), res.Config.Runs)
	}
	fmt.Fprintf(&b, "- end-of-run sample: sim %.1f cells, theory %.1f, finite-pool bound %.1f\n",
		last(res.SimMean), last(res.TheoryMean), blink.ExpectedCapturable(res.Config.Blink.Cells, res.Config.MalFlows()))
	fmt.Fprintf(&b, "- paper: avg 172s to majority, simulations ~200s, sample saturates high\n")
	return b.String()
}

func e2(s section, seed uint64) string {
	var b strings.Builder
	n, flows := 8, 250
	prefixes := s.in.prefixes
	var rows []blink.SurveyRow
	s.call("blink", "RunSurveyN", func() { rows = dui.RunSurveyN(dui.BlinkConfig{}, prefixes, flows, seed+1, 1) })
	var trs []float64
	ge10, feasible := 0, 0
	for _, r := range rows {
		trs = append(trs, r.TR)
		if r.TR >= 10 {
			ge10++
		}
		if r.RequiredQm <= 0.0525 {
			feasible++
		}
	}
	fmt.Fprintf(&b, "\n## E2 — prefix survey (tR and required qm)\n")
	fmt.Fprintf(&b, "- %d synthetic prefixes: median tR %.1fs, %d/%d with tR>=10s\n",
		n, stats.Median(trs), ge10, n)
	fmt.Fprintf(&b, "- prefixes attackable at qm<=5.25%% within one reset: %d/%d\n", feasible, n)
	fmt.Fprintf(&b, "- required qm is monotone in tR (theory property, verified in tests)\n")
	fmt.Fprintf(&b, "- paper: median tR ~5s; half of prefixes ~10s; longer tR needs higher qm\n")
	return b.String()
}

func e3(s section, seed uint64) string {
	var b strings.Builder
	var legit *dui.FailoverResult
	var res *dui.HijackResult
	s.call("blink", "E3.failover", func() { legit = dui.RunFailover(dui.FailoverConfig{FailAt: 20, Duration: 45}) })
	s.call("blink", "E3.hijack", func() { res = dui.RunHijack(dui.HijackConfig{Seed: seed}) })
	fmt.Fprintf(&b, "\n## E3 — end-to-end Blink behaviour\n")
	fmt.Fprintf(&b, "- genuine failure: detected in %.2fs, %d/%d flows recovered via backup\n",
		legit.DetectionLatency, legit.RecoveredFlows, legit.Config.Flows)
	fmt.Fprintf(&b, "- hijack: attacker held %d/64 cells at trigger; reroute %.2fs after the storm; %d packets crossed the attacker router\n",
		res.MaliciousCellsAtTrigger, res.Latency, res.HijackedPackets)
	fmt.Fprintf(&b, "- paper: single-host-level attacker can induce rerouting onto a path she controls\n")
	return b.String()
}

func e4(s section, seed uint64) string {
	var b strings.Builder
	dur, flows := 60.0, 4
	var runs []*dui.OscResult
	s.call("pcc", "OscSweep", func() {
		runs = dui.OscSweep([]dui.OscConfig{
			{Duration: dur, Seed: seed},
			{Duration: dur, Seed: seed, Attack: true},
			{Flows: flows, Duration: dur, Seed: seed},
			{Flows: flows, Duration: dur, Seed: seed, Attack: true},
		}, 1)
	})
	clean, attacked, fleetC, fleetA := runs[0], runs[1], runs[2], runs[3]
	var amp float64
	s.call("pcc", "ForcedOscillation", func() { _, amp = dui.ForcedOscillation(0.01, 0.05, 10) })
	fmt.Fprintf(&b, "\n## E4 — PCC utility equalizer\n")
	fmt.Fprintf(&b, "- single flow: clean %.0f pkts/s vs attacked %.0f pkts/s (capacity 1000); oscillation %.1f%%; drop budget %.2f%%\n",
		clean.MeanRateLate, attacked.MeanRateLate, 100*attacked.Flows[0].OscAmplitude, 100*attacked.DropFraction)
	fmt.Fprintf(&b, "- fleet of %d flows: aggregate %.0f -> %.0f pkts/s; arrival CV %.2f%% -> %.2f%%\n",
		flows, lateMean(fleetC.AggSeries, dur*2/3), lateMean(fleetA.AggSeries, dur*2/3),
		100*fleetC.AggCV, 100*fleetA.AggCV)
	fmt.Fprintf(&b, "- analytic model: tied trials escalate ε to the 5%% cap -> ±5%% forced oscillation (peak-to-peak %.0f%%)\n", 100*amp)
	fmt.Fprintf(&b, "- paper: flows fluctuate ±5%% without converging; fleet-level traffic fluctuation at the destination\n")
	return b.String()
}

func e5(s section, seed uint64) string {
	var b strings.Builder
	cfg := dui.PytheasConfig{Seed: seed}
	cfg.Sessions, cfg.Epochs = 500, 150
	fractions := []float64{0, 0.1, 0.2, 0.3}
	var rows []pytheas.PoisonRow
	s.call("pytheas", "PoisonSweepN", func() { rows = dui.PoisonSweepN(cfg, fractions, 5, 1) })
	fmt.Fprintf(&b, "\n## E5 — Pytheas group poisoning\n")
	for i, f := range fractions {
		fmt.Fprintf(&b, "- botnet %.0f%%: honest QoE %.2f, %.0f%% of honest sessions still on the good option\n",
			100*f, rows[i].HonestQoELate, 100*rows[i].GoodShareLate)
	}
	var out *pytheas.ThrottleOutcome
	s.call("pytheas", "RunThrottle", func() { out = dui.RunThrottle(cfg, 0.7, 0.2) })
	fmt.Fprintf(&b, "- throttle attack: QoE %.2f -> %.2f, peak stampede %.0f%% onto the capacity-limited site\n",
		out.Baseline.HonestQoELate, out.Attacked.HonestQoELate, 100*out.PeakStampedeShare)
	fmt.Fprintf(&b, "- paper: a minority of manipulated clients drives group-wide decisions; throttling stampedes/overloads a CDN site\n")
	return b.String()
}

func e6(s section, seed uint64) string {
	var b strings.Builder
	g, pairs := s.in.g, s.in.pairs
	var (
		phys, virt, lie, view dui.PathMap
		m                     nethide.Metrics
		atk, lieAtk           nethide.AttackOutcome
	)
	s.call("nethide", "ShortestPaths", func() { phys = nethide.ShortestPaths(g, pairs) })
	hot, hotD := phys.MaxDensity()
	s.call("nethide", "Obfuscate", func() { virt, m = dui.Obfuscate(g, pairs, dui.NetHideConfig{DensityCap: 30}, seed) })
	s.call("nethide", "EvaluateAttack", func() {
		atk = nethide.EvaluateAttack(phys, nethide.Survey(virt, pairs), 0)
		lie = dui.MaliciousTopology(g, pairs, hot.A, hot.B)
		view = nethide.Survey(lie, pairs)
		lieAtk = nethide.EvaluateAttack(phys, view, 0)
	})
	fmt.Fprintf(&b, "\n## E6 — NetHide / fake topologies\n")
	fmt.Fprintf(&b, "- Abilene: hottest link %s-%s density %d; NetHide cap 30 -> virt max %d, accuracy %.3f, utility %.3f, attack success %.2f\n",
		g.Name(hot.A), g.Name(hot.B), hotD, m.MaxDensityVirt, m.Accuracy, m.Utility, atk.Success)
	fmt.Fprintf(&b, "- malicious operator: hidden link visible=%v; attacker success on the lie %.2f\n",
		nethide.HiddenLinkVisible(view, hot.A, hot.B), lieAtk.Success)
	fmt.Fprintf(&b, "- paper: unauthenticated ICMP lets whoever answers traceroute control the learned topology\n")
	return b.String()
}

func e7(s section, seed uint64) string {
	var b strings.Builder
	var sp sppifo.Outcome
	s.call("sppifo", "RunSPPIFO", func() { sp = dui.RunSPPIFO(8, seed) })
	var rows []sketch.PollutionRow
	s.call("sketch", "RunSketchPollution", func() { rows = dui.RunSketchPollution(seed, []int{400}) })
	var crafted, random sketch.PollutionRow
	for _, r := range rows {
		if r.Crafted {
			crafted = r
		} else {
			random = r
		}
	}
	var vic bool
	var others float64
	s.call("sketch", "RunTargeted", func() { vic, others = sketch.PollutionExperiment{Seed: seed}.RunTargeted(400, 2) })
	var probe ron.Outcome
	s.call("ron", "RunProbeAttack", func() { probe = dui.RunProbeAttack(8, seed, 0.2) })
	fmt.Fprintf(&b, "\n## E7 — §3.2 breadth\n")
	fmt.Fprintf(&b, "- SP-PIFO (8 queues): adversarial ranks amplify excess unpifoness %.1fx over random arrivals\n", sp.Amplification)
	fmt.Fprintf(&b, "- FlowRadar: 400 crafted flows -> %.0f%% of attack traffic invisible (random: %.0f%% decoded); targeted victim hidden=%v with %.0f%% collateral-free legit decode\n",
		100*(1-crafted.AttackDecoded), 100*random.AttackDecoded, !vic, 100*others)
	fmt.Fprintf(&b, "- RON: +200ms on probes only diverts the victim pair (latency x%.2f) touching %.2f%% of packets\n",
		probe.Inflation, 100*probe.TamperBudget)
	var misblame dapper.Outcome
	s.call("dapper", "RunDapper", func() { misblame = dui.RunDapper(dui.TrueSender, dui.InjectRetransmissions, 20) })
	fmt.Fprintf(&b, "- DAPPER: duplicated segments flip a sender-limited flow's diagnosis to %s (%d injected packets)\n",
		misblame.Diagnosis, misblame.Budget)
	var exh *conntrack.ExhaustionResult
	s.call("conntrack", "RunStateExhaustion", func() {
		exh = dui.RunStateExhaustion(conntrack.ExhaustionConfig{Seed: seed, AttackSYNRate: 2000})
	})
	fmt.Fprintf(&b, "- state exhaustion: 2000 SYN/s fills the 4000-entry table; %.0f%% of legit connections break at the next pool update\n",
		100*exh.BrokenFraction)
	var acc float64
	var evRows []bnn.EvasionRow
	s.call("bnn", "RunBNNEvasion", func() { acc, evRows = dui.RunBNNEvasion(seed|1, []int{4}) })
	for _, r := range evRows {
		if r.Crafted {
			fmt.Fprintf(&b, "- in-network BNN (%.0f%% accurate): %.0f%% evasion with %.1f crafted bit flips on average\n",
				100*acc, 100*r.SuccessRate, r.MeanFlips)
		}
	}
	return b.String()
}

func e8(s section, seed uint64) string {
	var b strings.Builder
	var clean, genuine *dui.FailoverResult
	var attack *dui.HijackResult
	s.call("blink", "E8.clean", func() { clean = dui.RunFailover(dui.FailoverConfig{FailAt: 0, Duration: 20}) })
	model := dui.NewRTOModel(clean.SRTTs, 0.2)
	hook := func(p *blink.Pipeline) { dui.GuardPipeline(p, model) }
	s.call("blink", "E8.failover", func() { genuine = dui.RunFailover(dui.FailoverConfig{FailAt: 20, Duration: 45, Hook: hook}) })
	s.call("blink", "E8.hijack", func() { attack = dui.RunHijack(dui.HijackConfig{Seed: seed, Hook: hook}) })
	base := dui.PytheasConfig{Seed: seed}
	atk := pytheas.Poison{Bots: 150, ReportMultiplier: 5}.Defaults()
	var vuln, prot *pytheas.SimResult
	s.call("pytheas", "RunPytheas", func() { vuln = dui.RunPytheas(base, atk) })
	defended := base
	defended.E2.Aggregate = pytheas.MADFiltered(3)
	defended.DedupReports = true
	s.call("pytheas", "RunPytheas.defended", func() { prot = dui.RunPytheas(defended, atk) })
	var att *dui.OscResult
	s.call("pcc", "RunOscillation", func() { att = dui.RunOscillation(dui.OscConfig{Duration: 90, Seed: seed, Attack: true}) })
	fmt.Fprintf(&b, "\n## E8 — §5 countermeasures\n")
	fmt.Fprintf(&b, "- Blink guard: genuine failover still works (rerouted=%v, latency %.2fs, 0 vetoes=%v); hijack blocked (rerouted=%v, %d vetoes)\n",
		genuine.Rerouted, genuine.DetectionLatency, genuine.VetoedReroutes == 0, attack.Rerouted, attack.VetoedReroutes)
	fmt.Fprintf(&b, "- Pytheas: attacked QoE %.2f -> defended %.2f (dedup + MAD filtering)\n",
		vuln.HonestQoELate, prot.HonestQoELate)
	fmt.Fprintf(&b, "- PCC: equalizer detected: %s\n", dui.PCCLossCorrelation(att.Records))
	for _, cap := range []float64{0.05, 0.01} {
		var amp float64
		s.call("pcc", "ForcedOscillation", func() { _, amp = dui.ForcedOscillation(0.01, cap, 20) })
		fmt.Fprintf(&b, "- PCC ε clamp %.2f bounds forced oscillation to ±%.0f%%\n", cap, 100*amp/2)
	}
	return b.String()
}

func crossing(s *stats.Series, level float64) float64 {
	t, _ := s.FirstCrossing(level)
	return t
}

func last(s *stats.Series) float64 { return s.Values[len(s.Values)-1] }

func lateMean(s *stats.Series, from float64) float64 {
	var sum stats.Summary
	for i := range s.Values {
		if s.Time(i) >= from {
			sum.Add(s.Values[i])
		}
	}
	return sum.Mean()
}

// replayE1 regenerates E1's per-run packet streams exactly as RunFig2
// does (run k draws from stats.ChildAt(seed, k), legitimate then
// malicious child streams). Without a monitor it only drains the
// generator; with one it feeds Blink and rebuilds each run's
// malicious-cell series, which must equal res.Runs[k].
func replayE1(res *blink.Fig2Result, feed bool) (events int, err error) {
	cfg := res.Config
	for k := 0; k < cfg.Runs; k++ {
		rng := stats.ChildAt(cfg.Seed, uint64(k))
		legit := trace.NewLegit(trace.LegitConfig{
			Victim: blink.Victim, Flows: cfg.LegitFlows,
			Dur: trace.ExpDuration{MeanSec: res.MeanFlowDuration}, PPS: cfg.PPS,
			Until: cfg.Duration, SrcBase: blink.LegitSrcBase,
		}, rng.Child())
		mal := trace.NewMalicious(trace.MaliciousConfig{
			Victim: blink.Victim, Flows: cfg.MalFlows(), PPS: cfg.MalPPS,
			Until: cfg.Duration, SrcBase: blink.MalSrcBase,
			RetransmitFrom: math.Inf(1),
		}, rng.Child())
		st := trace.Merge(legit, mal)
		if !feed {
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				events++
			}
			continue
		}
		m := blink.NewMonitor(cfg.Blink)
		series := stats.NewSeries(0, cfg.SampleStep, int(cfg.Duration/cfg.SampleStep))
		next, idx := 0.0, 0
		for ev, ok := st.Next(); ok; ev, ok = st.Next() {
			events++
			for idx < len(series.Values) && ev.Time >= next {
				series.Values[idx] = float64(m.CountOccupied(blink.IsMaliciousSrc))
				idx++
				next += cfg.SampleStep
			}
			m.Feed(ev.Time, ev.Pkt)
		}
		for ; idx < len(series.Values); idx++ {
			series.Values[idx] = float64(m.CountOccupied(blink.IsMaliciousSrc))
		}
		want := res.Runs[k].Values
		if len(want) != len(series.Values) {
			return events, fmt.Errorf("E1 replay run %d: %d samples, RunFig2 has %d", k, len(series.Values), len(want))
		}
		for i := range want {
			if want[i] != series.Values[i] {
				return events, fmt.Errorf("E1 replay run %d: sample %d is %g, RunFig2 has %g", k, i, series.Values[i], want[i])
			}
		}
	}
	return events, nil
}

// runReport is the report workload. Timed: closed-loop passes at one
// seed until the budget is spent; wall_s and cpu_s are passEstimate's
// per-pass figures, the pass split at every module call.
// Traced: one untraced and one traced pass, the E1 replays, and the
// per-layer metrics.
func runReport(o opts, r *result) {
	var in *reportInputs
	r.setup(func() error {
		in = newReportInputs(o.seed)
		return nil
	}, nil)
	if o.trace {
		traceReport(o, in, r)
		return
	}
	var passes []*laps
	var first []byte
	body := readUsage()
	for roomFor(body.wall, o.seconds, passes) {
		l := startLaps()
		text := reportPass(in, nil, l, len(passes))
		l.mark()
		passes = append(passes, l)
		r.check(samePass("report", o.seed, first, text, checkReport))
		if first == nil {
			first = text
		}
	}
	r.noise(body)
	r.passes("report", passes)
	r.note("report: seed %d, sha256 %s", o.seed, digest(first))
	r.set("peak_rss_mib", peakRSSMiB(), "MiB")
}

// samePass checks one pass's output: against the run's first pass when
// there is one (every pass must be byte-identical), else with check.
func samePass(what string, seed uint64, first, got []byte, check func(uint64, []byte) error) error {
	if first != nil {
		if !bytes.Equal(first, got) {
			return fmt.Errorf("%s: pass output differs from the first pass (sha256 %s vs %s)", what, digest(got), digest(first))
		}
		return nil
	}
	return check(seed, got)
}

func traceReport(o opts, in *reportInputs, r *result) {
	t0 := time.Now()
	plain := reportPass(in, nil, nil, 0)
	untraced := time.Since(t0)
	r.check(checkReport(o.seed, plain))

	probe := &reportProbe{tr: newTracer()}
	tr := probe.tr
	u0 := readUsage()
	traced := reportPass(in, probe, nil, 1)
	tracedWall := time.Since(u0.wall)
	r.noise(u0)
	r.runtimeLayer(u0)
	r.check(samePass("report: traced", o.seed, plain, traced, nil))
	spans := tr.snapshot()
	byLayer := sumBy(spans, func(s span) string { return s.Name })
	for _, l := range reportLayers {
		r.set(l+".ms", ms(byLayer[l]), "ms")
	}
	byCall := sumBy(spans, func(s span) string { return s.Call })
	guarded := byCall["E8.failover"] + byCall["E8.hijack"]
	unguarded := byCall["E3.failover"] + byCall["E3.hijack"]
	r.set("supervisor.ms", ms(guarded-unguarded), "ms")
	r.set("sketch.allocs", float64(probe.sketchAllocs), "count")

	var events, fed int
	var err error
	tr.wrap("trace", "E1.drain", -1, 2, func() { events, err = replayE1(probe.fig2, false) })
	r.check(err)
	tr.wrap("blink.feed", "E1.replay", -1, 2, func() { fed, err = replayE1(probe.fig2, true) })
	if err == nil && fed != events {
		err = fmt.Errorf("E1 replay fed %d events, the drain produced %d", fed, events)
	}
	r.check(err)
	spans = tr.snapshot()
	replay := sumBy(spans, func(s span) string { return s.Name })
	r.set("trace.ms", ms(replay["trace"]), "ms")
	r.set("trace.events", float64(events), "count")
	r.set("blink.feed_ms", ms(replay["blink.feed"]-replay["trace"]), "ms")
	r.set("untraced.wall_s", untraced.Seconds(), "s")
	r.set("traced.wall_s", tracedWall.Seconds(), "s")
	r.spans(o, tr)
}
