// Package campaign turns the lab's batch evaluations into jobs a
// long-running service can queue, execute, cache, and resume — the
// "heavy traffic from many users" layer of the reproduction (ROADMAP
// item 5), served by cmd/duid.
//
// A JobSpec describes one campaign: a scenario-fuzzing run, a chaos-eval
// sweep, a scenario batch, or an attack-frontier search. Every job kind
// obeys the repo-wide determinism contract — the result is a pure
// function of the canonical spec, independent of worker count, shard
// split, process boundaries, and restarts — which is what makes the rest
// of this package sound:
//
//   - Execute splits a job's seed range into contiguous shards, runs them
//     on bounded worker pools (in-process via internal/runner, or in
//     worker subprocesses via Env.RunShard), and merges per-trial records
//     in trial order, so the encoded result is byte-identical at any
//     Workers / Shards / ShardParallel setting;
//   - per-trial records append to an internal/journal file as they
//     complete, so a campaign killed mid-run (kill -9 included) resumes
//     from the journal to the identical final verdict;
//   - results are cached content-addressed by Key — a hash of the
//     canonical spec plus the code revision (internal/buildinfo) — so
//     resubmitting an identical campaign is served without re-simulation,
//     and no cached verdict survives a code change.
//
// Server exposes the whole thing over an HTTP JSON API (submit, status,
// long-poll, SSE progress streaming, cancel); Client is the Go consumer
// the cmd/ drivers' -server modes are built on.
package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dui/internal/buildinfo"
	"dui/internal/fuzz"
	"dui/internal/robustness"
	"dui/internal/scenario"
)

// Job kinds accepted in JobSpec.Kind.
const (
	KindFuzz       = "fuzz"
	KindChaos      = "chaos"
	KindScenarios  = "scenarios"
	KindAdv        = "adv"
	KindRobustness = "robustness"
)

// JobSpec describes one campaign. Exactly the field matching Kind is set;
// Canon validates, applies the kind's canonical defaults, and clears the
// rest, so two specs meaning the same campaign hash to the same Key.
type JobSpec struct {
	// Kind selects the campaign type (KindFuzz, KindChaos, KindScenarios,
	// KindAdv).
	Kind       string          `json:"kind"`
	Fuzz       *FuzzSpec       `json:"fuzz,omitempty"`
	Chaos      *ChaosSpec      `json:"chaos,omitempty"`
	Scenarios  *ScenarioSpec   `json:"scenarios,omitempty"`
	Adv        *AdvSpec        `json:"adv,omitempty"`
	Robustness *RobustnessSpec `json:"robustness,omitempty"`
}

// FuzzSpec is a scenario-fuzzing campaign (the fuzz job kind, which every
// cmd/simfuzz mode runs). Wall-clock budgets and checkpoint paths are
// deliberately absent: both are process-local concerns that would break
// the pure-function-of-spec contract the result cache depends on
// (simfuzz's -budget is a context deadline, its -checkpoint the
// Env.Journal).
type FuzzSpec struct {
	// Seeds is how many scenarios to draw and run (default 200).
	Seeds int `json:"seeds"`
	// RootSeed expands into per-trial scenario seeds (default 1).
	RootSeed uint64 `json:"root_seed"`
	// MaxNodes caps generated topology size (0 = generator default).
	MaxNodes int `json:"max_nodes,omitempty"`
	// Faults opens the benign-fault plane to the generator.
	Faults bool `json:"faults,omitempty"`
	// Shrink minimizes every failure to a minimal reproducer.
	Shrink bool `json:"shrink,omitempty"`
	// ShrinkBudget caps candidate runs per failure (0 = default).
	ShrinkBudget int `json:"shrink_budget,omitempty"`
}

// ChaosSpec is a chaos-eval sweep: Blink failure inference under gray
// failure of Levels intensities, Trials trials each (cmd/chaos-eval).
type ChaosSpec struct {
	// Trials per intensity level (default 10).
	Trials int `json:"trials"`
	// Levels of gray intensity, evenly spaced over [0, 1] (default 6,
	// minimum 2).
	Levels int `json:"levels"`
	// RootSeed derives each trial's fault streams (default 1).
	RootSeed uint64 `json:"root_seed"`
	// FailAt is the genuine-failure time in guarded runs (default 20).
	FailAt float64 `json:"fail_at,omitempty"`
	// Duration is the per-run horizon in seconds (default 45).
	Duration float64 `json:"duration,omitempty"`
}

// ScenarioSpec is a scenario batch: explicit internal/scenario values run
// under the full audit-oracle stack, one trial each.
type ScenarioSpec struct {
	// Scenarios are run in order; each result reports its violations.
	Scenarios []scenario.Scenario `json:"scenarios"`
}

// AdvSpec is an attack-frontier search (cmd/advsearch). The search is
// sequential across generations, so this kind always runs as one shard;
// worker-count independence comes from internal/advsearch itself.
type AdvSpec struct {
	// Systems to attack, a subset of {blink, pytheas, pcc}; canonicalized
	// to that order (default all three).
	Systems []string `json:"systems"`
	// Guarded selects deployments: "on", "off", or "both" (default).
	Guarded string `json:"guarded"`
	// Searcher is "cem" (default) or "anneal".
	Searcher string `json:"searcher"`
	// Seed is the root seed the whole output derives from (default 1).
	Seed uint64 `json:"seed"`
	// Gens and Pop set the search budget (defaults 8 and 24).
	Gens int `json:"gens"`
	Pop  int `json:"pop"`
	// Validate is validation replications per frontier candidate
	// (default 5).
	Validate int `json:"validate"`
	// Quick shrinks the per-evaluation simulations for smoke runs.
	Quick bool `json:"quick,omitempty"`
}

// RobustnessSpec is a full robustness-matrix evaluation (cmd/robustness):
// every (system, attack, guard arm, fault profile) cell scored over
// Trials twin-run reps.
type RobustnessSpec struct {
	// Systems selects harnesses by canonical name; canonicalized to
	// registry order (default all nine).
	Systems []string `json:"systems"`
	// Profiles selects benign-fault profiles by name; canonicalized to
	// the robustness.AllProfiles order (default all four).
	Profiles []string `json:"profiles"`
	// Trials is the twin-run rep count per cell (default 2).
	Trials int `json:"trials"`
	// RootSeed derives every rep's seed (default 1).
	RootSeed uint64 `json:"root_seed"`
	// Quick shrinks every harness for smoke runs.
	Quick bool `json:"quick,omitempty"`
}

// Canon validates s and returns the canonical form: kind defaults
// applied, non-kind fields cleared. Two specs describing the same
// campaign canonicalize to equal values and therefore equal Keys.
func (s JobSpec) Canon() (JobSpec, error) {
	out := JobSpec{Kind: s.Kind}
	switch s.Kind {
	case KindFuzz:
		f := FuzzSpec{}
		if s.Fuzz != nil {
			f = *s.Fuzz
		}
		if f.Seeds <= 0 {
			f.Seeds = 200
		}
		if f.RootSeed == 0 {
			f.RootSeed = 1
		}
		out.Fuzz = &f
	case KindChaos:
		c := ChaosSpec{}
		if s.Chaos != nil {
			c = *s.Chaos
		}
		if c.Trials <= 0 {
			c.Trials = 10
		}
		if c.Levels <= 0 {
			c.Levels = 6
		}
		if c.Levels < 2 {
			return out, fmt.Errorf("campaign: chaos job needs levels >= 2, got %d", c.Levels)
		}
		if c.RootSeed == 0 {
			c.RootSeed = 1
		}
		if c.FailAt <= 0 {
			c.FailAt = 20
		}
		if c.Duration <= 0 {
			c.Duration = 45
		}
		if c.FailAt >= c.Duration {
			return out, fmt.Errorf("campaign: chaos job needs fail_at < duration (%g >= %g)", c.FailAt, c.Duration)
		}
		out.Chaos = &c
	case KindScenarios:
		if s.Scenarios == nil || len(s.Scenarios.Scenarios) == 0 {
			return out, fmt.Errorf("campaign: scenarios job carries no scenarios")
		}
		sc := ScenarioSpec{Scenarios: make([]scenario.Scenario, len(s.Scenarios.Scenarios))}
		for i, scn := range s.Scenarios.Scenarios {
			if err := scn.Validate(); err != nil {
				return out, fmt.Errorf("campaign: scenario %d: %w", i, err)
			}
			sc.Scenarios[i] = scn.Clone()
		}
		out.Scenarios = &sc
	case KindAdv:
		a := AdvSpec{}
		if s.Adv != nil {
			a = *s.Adv
		}
		if len(a.Systems) == 0 {
			a.Systems = []string{"blink", "pytheas", "pcc"}
		}
		want := map[string]bool{}
		for _, sys := range a.Systems {
			switch sys {
			case "blink", "pytheas", "pcc":
				want[sys] = true
			default:
				return out, fmt.Errorf("campaign: adv job: unknown system %q", sys)
			}
		}
		a.Systems = a.Systems[:0]
		for _, sys := range []string{"blink", "pytheas", "pcc"} {
			if want[sys] {
				a.Systems = append(a.Systems, sys)
			}
		}
		switch a.Guarded {
		case "":
			a.Guarded = "both"
		case "on", "off", "both":
		default:
			return out, fmt.Errorf("campaign: adv job: unknown guarded %q", a.Guarded)
		}
		switch a.Searcher {
		case "":
			a.Searcher = "cem"
		case "cem", "anneal":
		default:
			return out, fmt.Errorf("campaign: adv job: unknown searcher %q", a.Searcher)
		}
		if a.Seed == 0 {
			a.Seed = 1
		}
		if a.Gens <= 0 {
			a.Gens = 8
		}
		if a.Pop <= 0 {
			a.Pop = 24
		}
		if a.Validate <= 0 {
			a.Validate = 5
		}
		out.Adv = &a
	case KindRobustness:
		r := RobustnessSpec{}
		if s.Robustness != nil {
			r = *s.Robustness
		}
		systems, err := robustness.Select(r.Systems)
		if err != nil {
			return out, fmt.Errorf("campaign: robustness job: %w", err)
		}
		r.Systems = r.Systems[:0]
		for _, sys := range systems {
			r.Systems = append(r.Systems, sys.Name())
		}
		profiles, err := robustness.Profiles(r.Profiles)
		if err != nil {
			return out, fmt.Errorf("campaign: robustness job: %w", err)
		}
		wantProf := map[string]bool{}
		for _, p := range profiles {
			wantProf[p.Name] = true
		}
		r.Profiles = r.Profiles[:0]
		for _, p := range robustness.AllProfiles {
			if wantProf[p.Name] {
				r.Profiles = append(r.Profiles, p.Name)
			}
		}
		if r.Trials <= 0 {
			r.Trials = 2
		}
		if r.RootSeed == 0 {
			r.RootSeed = 1
		}
		out.Robustness = &r
	default:
		return out, fmt.Errorf("campaign: unknown job kind %q", s.Kind)
	}
	return out, nil
}

// GenConfig maps the fuzz spec onto the generator configuration the
// fuzzing subsystem understands.
func (f *FuzzSpec) GenConfig() fuzz.GenConfig {
	return fuzz.GenConfig{MaxNodes: f.MaxNodes, FaultModes: f.Faults}
}

// Key content-addresses a canonical spec for the result cache: a SHA-256
// over the canonical spec JSON and the code revision
// (buildinfo.Revision), truncated to 32 hex characters. The root seed is
// part of the spec, so the ISSUE's (job-spec hash, root seed, code
// version) triple is covered; a code change — or a dirty tree under VCS
// stamping — changes every key, so stale verdicts are never served.
func Key(canon JobSpec) string {
	enc, err := json.Marshal(canon)
	if err != nil {
		// A canonical spec is always marshalable; this keeps Key total.
		enc = []byte(fmt.Sprintf("%+v", canon))
	}
	h := sha256.New()
	h.Write(enc)
	h.Write([]byte{0})
	h.Write([]byte(buildinfo.Revision()))
	return hex.EncodeToString(h.Sum(nil))[:32]
}
