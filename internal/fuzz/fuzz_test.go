package fuzz

import (
	"reflect"
	"testing"

	"dui/internal/audit"
	"dui/internal/netsim"
	"dui/internal/scenario"
)

func TestGeneratedScenariosAlwaysValid(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		s := Generate(seed, GenConfig{})
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := Generate(42, GenConfig{})
	b := Generate(42, GenConfig{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Generate(42) differs across calls")
	}
}

// TestFaultModesDoNotPerturbClassicDraws pins the generator layering: for
// any seed, the classic portion of the scenario is bit-identical with
// FaultModes on or off — fault draws happen strictly after.
func TestFaultModesDoNotPerturbClassicDraws(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		off := Generate(seed, GenConfig{})
		on := Generate(seed, GenConfig{FaultModes: true})
		stripped := on.Clone()
		stripped.Gray, stripped.Flaps, stripped.Degrades, stripped.Crashes = nil, nil, nil, nil
		if !reflect.DeepEqual(*off, stripped) {
			t.Fatalf("seed %d: FaultModes perturbed the classic draws", seed)
		}
		if err := on.Validate(); err != nil {
			t.Fatalf("seed %d: fault-mode scenario invalid: %v", seed, err)
		}
	}
}

func TestShrinkPreservesRuleOnHandBuiltFailure(t *testing.T) {
	netsim.DebugHooks.TapChainShortCircuit = true
	defer func() { netsim.DebugHooks.TapChainShortCircuit = false }()
	// An oversized scenario exhibiting the tap-chain bug, with plenty of
	// irrelevant structure (a spur subtree, a second workload, a failure)
	// for the shrinker to strip away.
	s := &scenario.Scenario{
		Name: "tap-chain-big", Seed: 9, Duration: 6,
		Nodes: []scenario.NodeSpec{
			{Name: "h0"}, {Name: "r1", Router: true}, {Name: "r2", Router: true},
			{Name: "h3"}, {Name: "h4"}, {Name: "r5", Router: true},
		},
		Links: []scenario.LinkSpec{
			{A: 0, B: 1, Delay: 0.001},
			{A: 1, B: 2, Delay: 0.002},
			{A: 2, B: 3, Delay: 0.001},
			{A: 2, B: 5, Delay: 0.003},
			{A: 5, B: 4, Delay: 0.001},
		},
		Workloads: []scenario.WorkloadSpec{
			{Kind: scenario.KindLegit, From: 0, To: 3, Flows: 6, PPS: 20, Until: 5},
			{Kind: scenario.KindLegit, From: 4, To: 0, Flows: 4, PPS: 5, Until: 5, MeanDur: 1},
		},
		Failures: []scenario.FailureSpec{{Link: 4, DownAt: 3, UpAt: 3.5}},
		Taps:     []scenario.TapSpec{{Link: 1, Dir: 0, Delay: 0.2}},
	}
	rep := scenario.Run(s, scenario.Options{})
	if !rep.HasRule(audit.RuleSendConservation) {
		t.Fatalf("hand-built scenario does not exhibit the tap bug: %v", rep.Violations)
	}
	shrunk, runs := Shrink(s, audit.RuleSendConservation, 0)
	if runs == 0 {
		t.Fatal("shrinker ran no candidates")
	}
	got := scenario.Run(shrunk, scenario.Options{})
	if !got.HasRule(audit.RuleSendConservation) {
		t.Fatalf("shrunk scenario lost the violation: %v", got.Violations)
	}
	if len(shrunk.Nodes) >= len(s.Nodes) || len(shrunk.Workloads) >= len(s.Workloads) || len(shrunk.Failures) > 0 {
		t.Fatalf("shrinker left irrelevant structure: %s -> %s", s.Size(), shrunk.Size())
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Generate(5, GenConfig{})
	e := &Entry{Name: "rt", Rule: audit.RuleQueueSurvives, Hook: "disable-failure-flush", Scenario: s.Clone()}
	if _, err := SaveEntry(dir, e); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "rt" || got[0].Hook != e.Hook || !reflect.DeepEqual(got[0].Scenario, e.Scenario) {
		t.Fatalf("corpus round-trip mismatch: %+v", got)
	}
	if err := SetHook("no-such-hook", true); err == nil {
		t.Fatal("unknown hook accepted")
	}
}
