package robustness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"dui/internal/blink"
	"dui/internal/pcc"
	"dui/internal/pytheas"
	"dui/internal/runner"
	"dui/internal/supervisor"
)

// WriteDefenseEval renders the §5 countermeasure report (E8): the
// Blink RTO-plausibility supervisor against a genuine failure and the
// hijack, the Pytheas dedup + MAD-filtering defense against the botnet,
// and the PCC loss-correlation detector plus the ε clamp against the
// equalizer. The matrix subsumes these three point evaluations;
// cmd/robustness -defense-eval renders through here.
//
// The three sections are independent; workers parallelizes them on the
// trial runner without changing the output.
func WriteDefenseEval(w io.Writer, seed uint64, workers int) {
	fmt.Fprintf(w, "§5 countermeasure evaluation\n")
	sections := []func(seed uint64) string{blinkSection, pytheasSection, pccSection}
	outputs, _ := runner.Map(context.Background(), sections, seed, runner.Config{Workers: workers},
		func(_ context.Context, t runner.Trial, section func(uint64) string) (string, error) {
			return section(seed), nil
		})
	for _, out := range outputs {
		io.WriteString(w, out)
	}
}

// blinkSection evaluates the RTO-plausibility supervisor.
func blinkSection(seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n[Blink supervisor] model trained from passively measured RTTs\n")
	clean := blink.RunFailover(blink.FailoverConfig{FailAt: 0, Duration: 20})
	model := supervisor.NewRTOModel(clean.SRTTs, 0.2)
	hook := func(p *blink.Pipeline) { supervisor.GuardPipeline(p, model) }

	genuine := blink.RunFailover(blink.FailoverConfig{FailAt: 20, Duration: 45, Hook: hook})
	fmt.Fprintf(&b, "  genuine failure:  rerouted=%v latency=%.2fs vetoes=%d recovered=%d/%d\n",
		genuine.Rerouted, genuine.DetectionLatency, genuine.VetoedReroutes,
		genuine.RecoveredFlows, genuine.Config.Flows)
	attack := blink.RunHijack(blink.HijackConfig{Seed: seed, Hook: hook})
	fmt.Fprintf(&b, "  hijack attempt:   rerouted=%v vetoes=%d hijacked packets=%d (attacker held %d cells)\n",
		attack.Rerouted, attack.VetoedReroutes, attack.HijackedPackets, attack.MaliciousCellsAtTrigger)
	return b.String()
}

// pytheasSection evaluates dedup + distribution filtering.
func pytheasSection(seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n[Pytheas defense] 15%% botnet with 5x report volume\n")
	base := pytheas.SimConfig{Seed: seed}
	atk := pytheas.Poison{Bots: 150, ReportMultiplier: 5}.Defaults()
	vuln := pytheas.Run(base, atk)
	defended := base
	defended.E2.Aggregate = pytheas.MADFiltered(3)
	defended.DedupReports = true
	prot := pytheas.Run(defended, atk)
	noatk := pytheas.Run(base, nil)
	fmt.Fprintf(&b, "  clean QoE %.2f | attacked (mean agg) %.2f | defended (dedup+MAD) %.2f\n",
		noatk.HonestQoELate, vuln.HonestQoELate, prot.HonestQoELate)
	// The detector view.
	v := supervisor.GroupReportCheck(poisonedWindow(), 4)
	fmt.Fprintf(&b, "  group-distribution detector on a poisoned window: %s\n", v)
	return b.String()
}

// pccSection evaluates the detector + epsilon clamp.
func pccSection(seed uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n[PCC defense]\n")
	runs := pcc.OscSweep([]pcc.OscConfig{
		{Duration: 90, Seed: seed},
		{Duration: 90, Seed: seed, Attack: true},
	}, 0)
	cleanPCC, attacked := runs[0], runs[1]
	fmt.Fprintf(&b, "  loss-correlation detector: clean=%s\n", supervisor.PCCLossCorrelation(cleanPCC.Records))
	fmt.Fprintf(&b, "                             attacked=%s\n", supervisor.PCCLossCorrelation(attacked.Records))
	for _, cap := range []float64{0.05, 0.03, 0.01} {
		_, amp := pcc.ForcedOscillation(0.01, cap, 20)
		fmt.Fprintf(&b, "  ε clamp %.2f -> forced oscillation bounded to ±%.0f%%\n", cap, 100*amp/2)
	}
	return b.String()
}

// poisonedWindow builds a representative contaminated report window for
// the detector demonstration: 85% honest around QoE 4.5, 15% bots at 0.2.
func poisonedWindow() []float64 {
	w := make([]float64, 200)
	for i := range w {
		w[i] = 4.5
		if i%7 == 0 {
			w[i] = 0.2
		}
	}
	return w
}
