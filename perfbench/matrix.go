package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dui/internal/campaign"
	"dui/internal/robustness"
)

// The matrix workload is `robustness -quick -json -parallel 1`: the
// quick robustness matrix as one campaign job executed inline by
// campaign.Execute at one worker. The traced run rebuilds the same bytes
// from robustness.RunTrial + Aggregate with a span around every trial.

// matrixPlan is the generated input of a matrix pass and its resolved
// cell axes.
type matrixPlan struct {
	spec     campaign.JobSpec
	canon    campaign.JobSpec
	cells    []robustness.CellID
	profiles []robustness.Profile
}

func newMatrixPlan(seed uint64) (*matrixPlan, error) {
	spec := campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{
		Trials: 2, RootSeed: seed, Quick: true,
	}}
	canon, err := spec.Canon()
	if err != nil {
		return nil, err
	}
	systems, err := robustness.Select(canon.Robustness.Systems)
	if err != nil {
		return nil, err
	}
	profiles, err := robustness.Profiles(canon.Robustness.Profiles)
	if err != nil {
		return nil, err
	}
	return &matrixPlan{spec: spec, canon: canon, cells: robustness.EnumerateCells(systems, profiles), profiles: profiles}, nil
}

// check validates a pass's JSON: it decodes, covers every cell of the
// plan with rates in [0, 1], and matches the pinned digest for a pinned
// seed.
func (p *matrixPlan) check(seed uint64, raw []byte) error {
	var res campaign.RobustnessResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("matrix: result does not decode: %w", err)
	}
	if res.Kind != campaign.KindRobustness || res.RootSeed != p.canon.Robustness.RootSeed || len(res.Cells) != len(p.cells) {
		return fmt.Errorf("matrix: result is kind %q seed %d with %d cells, want %q seed %d with %d",
			res.Kind, res.RootSeed, len(res.Cells), campaign.KindRobustness, p.canon.Robustness.RootSeed, len(p.cells))
	}
	for i, c := range res.Cells {
		for _, v := range []float64{c.DetectRate, c.FalseVetoRate, c.Damage, c.TwinDamage} {
			if math.IsNaN(v) || v < 0 || v > 1 {
				return fmt.Errorf("matrix: cell %d (%s/%s) has a rate outside [0, 1]: %+v", i, c.System, c.Attack, c)
			}
		}
	}
	return matrixPins.check(seed, raw)
}

// execute runs one pass; l, if non-nil, is marked at every progress
// report, which at one worker splits the pass at every trial.
func (p *matrixPlan) execute(l *laps) ([]byte, error) {
	env := campaign.Env{Workers: 1}
	if l != nil {
		env.OnProgress = func(campaign.Progress) { l.mark() }
	}
	return campaign.Execute(context.Background(), p.spec, env)
}

// runMatrix is the matrix workload. Timed: closed-loop passes until the
// budget is spent; wall_s and cpu_s are passEstimate's per-pass figures,
// the pass split at every trial. Traced: one Execute pass, then the
// span-instrumented rebuild.
func runMatrix(o opts, r *result) {
	var plan *matrixPlan
	r.setup(func() error {
		var err error
		plan, err = newMatrixPlan(o.seed)
		return err
	}, nil)
	if plan == nil {
		return
	}
	if o.trace {
		traceMatrix(o, plan, r)
		return
	}
	var passes []*laps
	var first []byte
	body := readUsage()
	for roomFor(body.wall, o.seconds, passes) {
		l := startLaps()
		raw, err := plan.execute(l)
		l.mark()
		passes = append(passes, l)
		if err != nil {
			r.check(fmt.Errorf("matrix: %w", err))
			continue
		}
		r.check(samePass("matrix", o.seed, first, raw, plan.check))
		if first == nil {
			first = raw
		}
	}
	r.noise(body)
	r.passes("matrix", passes)
	r.note("matrix: %d trials per pass at seed %d, sha256 %s", len(plan.cells)*plan.canon.Robustness.Trials, o.seed, digest(first))
	r.set("peak_rss_mib", peakRSSMiB(), "MiB")
}

func traceMatrix(o opts, plan *matrixPlan, r *result) {
	t0 := time.Now()
	raw, err := plan.execute(nil)
	untraced := time.Since(t0)
	if err == nil {
		err = plan.check(o.seed, raw)
	}
	r.check(err)

	tr := newTracer()
	u0 := readUsage()
	rebuilt, checks, err := plan.rebuild(tr)
	tracedWall := time.Since(u0.wall)
	r.noise(u0)
	r.runtimeLayer(u0)
	if err == nil && !bytes.Equal(raw, rebuilt) {
		err = fmt.Errorf("matrix: RunTrial+Aggregate rebuild differs from Execute (sha256 %s vs %s)", digest(rebuilt), digest(raw))
	}
	r.check(err)

	spans := tr.snapshot()
	bySystem := sumBy(spans, func(s span) string { return s.Name })
	var trials time.Duration
	for _, d := range bySystem {
		trials += d
	}
	guardCost := map[string]time.Duration{}
	byProfile := map[string]time.Duration{}
	for _, s := range spans {
		c := plan.cells[s.Op/plan.canon.Robustness.Trials]
		if c.Guarded {
			guardCost[s.Name] += s.dur()
		} else {
			guardCost[s.Name] -= s.dur()
		}
		byProfile[plan.profiles[c.ProfIdx].Name] += s.dur()
	}
	var guardTotal time.Duration
	for _, sys := range plan.canon.Robustness.Systems {
		r.set(sys+".ms", ms(bySystem[sys]), "ms")
	}
	for _, sys := range plan.canon.Robustness.Systems {
		r.set("supervisor."+sys+".ms", ms(guardCost[sys]), "ms")
		guardTotal += guardCost[sys]
	}
	r.set("supervisor.ms", ms(guardTotal), "ms")
	r.set("supervisor.checks", float64(checks), "count")
	if checks > 0 {
		r.set("supervisor.ns_per_check", float64(guardTotal)/float64(checks), "ns")
	}
	for _, p := range plan.profiles {
		r.set("faults."+p.Name+".ms", ms(byProfile[p.Name]), "ms")
	}
	r.set("campaign.ms", ms(untraced-trials), "ms")
	r.set("untraced.wall_s", untraced.Seconds(), "s")
	r.set("traced.wall_s", tracedWall.Seconds(), "s")
	r.spans(o, tr)
}

// rebuild runs every trial of the plan through robustness.RunTrial in
// trial order (cell-major, rep-minor, as the campaign kind numbers
// them), one span per trial named after the system, and assembles the
// canonical result JSON the way Execute does. It also returns the exact
// guard observation count of the guarded trials.
func (p *matrixPlan) rebuild(tr *tracer) ([]byte, int, error) {
	rs := p.canon.Robustness
	res := campaign.RobustnessResult{
		Kind: campaign.KindRobustness, Trials: rs.Trials, RootSeed: rs.RootSeed, Quick: rs.Quick,
		Systems: rs.Systems, Profiles: rs.Profiles,
	}
	systems := robustness.Systems()
	checks := 0
	for ci, cell := range p.cells {
		reps := make([]robustness.TrialOutcome, rs.Trials)
		for rep := range reps {
			name := systems[cell.SysIdx].Name()
			tr.wrap(name, p.profiles[cell.ProfIdx].Name, -1, ci*rs.Trials+rep, func() {
				reps[rep] = robustness.RunTrial(cell, p.profiles, rs.RootSeed, rep, rs.Quick)
			})
			// Execute round-trips every trial record through its JSON
			// journal encoding; do the same so float bits match.
			enc, err := json.Marshal(reps[rep])
			if err != nil {
				return nil, 0, err
			}
			reps[rep] = robustness.TrialOutcome{}
			if err := json.Unmarshal(enc, &reps[rep]); err != nil {
				return nil, 0, err
			}
			if cell.Guarded {
				checks += reps[rep].Checks + reps[rep].TwinChecks
			}
		}
		res.Cells = append(res.Cells, robustness.Aggregate(cell, p.profiles, reps))
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, 0, err
	}
	return append(enc, '\n'), checks, nil
}
