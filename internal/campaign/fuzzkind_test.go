package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dui/internal/audit"
	"dui/internal/campaign"
	"dui/internal/netsim"
	"dui/internal/scenario"
)

// decodeFuzz parses a fuzz job's result bytes.
func decodeFuzz(t *testing.T, raw []byte) campaign.FuzzResult {
	t.Helper()
	var res campaign.FuzzResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result does not parse as FuzzResult: %v", err)
	}
	return res
}

// withFlushBug re-introduces the link-failure queue-flush bug through
// its test-only hook for the rest of the test.
func withFlushBug(t *testing.T) {
	netsim.DebugHooks.DisableFailureFlush = true
	t.Cleanup(func() { netsim.DebugHooks.DisableFailureFlush = false })
}

// cleanCampaign asserts a fuzz campaign over current code comes back
// clean: the oracles have no false positives over the generator's
// behavior space.
func cleanCampaign(t *testing.T, f campaign.FuzzSpec) {
	if testing.Short() {
		f.Seeds = 25
	}
	res := decodeFuzz(t, mustExecute(t, campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &f}, campaign.Env{}))
	if res.Seeds != f.Seeds {
		t.Fatalf("ran %d seeds, want %d", res.Seeds, f.Seeds)
	}
	if len(res.Failures) > 0 {
		ff := res.Failures[0]
		b, _ := json.Marshal(ff.Scenario)
		t.Fatalf("clean code produced %d failures; first: seed=%#x rule=%s %s\nscenario: %s",
			len(res.Failures), ff.Seed, ff.Rule, ff.Violations[0], b)
	}
}

func TestCampaignCleanOnCurrentCode(t *testing.T) {
	cleanCampaign(t, campaign.FuzzSpec{Seeds: 100, RootSeed: 11})
}

// TestFaultCampaignCleanOnCurrentCode is the joint fault-plane/oracle
// sweep: scenarios drawn with every benign fault mode enabled must still
// satisfy every invariant and replay deterministically.
func TestFaultCampaignCleanOnCurrentCode(t *testing.T) {
	cleanCampaign(t, campaign.FuzzSpec{Seeds: 100, RootSeed: 23, Faults: true})
}

// TestCampaignCatchesReintroducedFlushBug is the fuzzer's headline
// acceptance property: with the link-failure queue-flush bug
// re-introduced, a 500-seed campaign finds it, shrinks a reproducer to
// at most 4 nodes and 3 flows that still fails on a fresh run, and
// returns byte-identical results at any worker count and shard split.
func TestCampaignCatchesReintroducedFlushBug(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-seed campaign")
	}
	withFlushBug(t)
	spec := campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: 500, RootSeed: 7, Shrink: true}}
	raw := mustExecute(t, spec, campaign.Env{Workers: 4, Shards: 3})
	res := decodeFuzz(t, raw)
	var hit *campaign.FuzzFailure
	for i := range res.Failures {
		if res.Failures[i].Rule == audit.RuleQueueSurvives {
			hit = &res.Failures[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("500 seeds found no %s violation (failures: %d)", audit.RuleQueueSurvives, len(res.Failures))
	}
	if hit.Shrunk == nil {
		t.Fatal("no shrunk reproducer")
	}
	flows := 0
	for _, w := range hit.Shrunk.Workloads {
		flows += w.Flows
	}
	if len(hit.Shrunk.Nodes) > 4 || flows > 3 {
		b, _ := json.Marshal(hit.Shrunk)
		t.Fatalf("reproducer not minimal: %s\n%s", hit.Shrunk.Size(), b)
	}
	if rep := scenario.Run(hit.Shrunk, scenario.Options{}); !rep.HasRule(audit.RuleQueueSurvives) {
		t.Fatalf("shrunk reproducer does not reproduce: %v", rep.Violations)
	}
	if again := mustExecute(t, spec, campaign.Env{Workers: 1, Shards: 1}); !bytes.Equal(again, raw) {
		t.Error("workers=1 shards=1 diverged from workers=4 shards=3")
	}
}

// TestExecuteJournalResumeWithFailures: a campaign canceled midway and
// resumed from its journal returns the uninterrupted run's bytes,
// shrunk reproducers included. The journal holds failing verdicts, so
// the resumed run regenerates their scenarios from the recorded seeds
// rather than from the trials it ran itself.
func TestExecuteJournalResumeWithFailures(t *testing.T) {
	withFlushBug(t)
	spec := campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: 40, RootSeed: 7, Shrink: true}}
	want := mustExecute(t, spec, campaign.Env{Workers: 2})
	if len(decodeFuzz(t, want).Failures) == 0 {
		t.Fatal("hooked campaign found nothing; the resume test needs failures to carry")
	}

	jpath := filepath.Join(t.TempDir(), "job.journal")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := campaign.Execute(ctx, spec, campaign.Env{Workers: 1, Journal: jpath,
		OnProgress: func(p campaign.Progress) {
			if p.Done == 20 {
				cancel() // die mid-campaign
			}
		}})
	if err == nil {
		t.Fatal("canceled campaign reported success")
	}
	journaled, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(journaled, []byte(`"violations"`)) {
		t.Fatal("no failing verdict was journaled before the cancel")
	}

	var last campaign.Progress
	got, err := campaign.Execute(context.Background(), spec, campaign.Env{Workers: 4, Shards: 3, Journal: jpath,
		OnProgress: func(p campaign.Progress) { last = p }})
	if err != nil {
		t.Fatalf("resumed campaign: %v", err)
	}
	if last.Resumed < 20 || last.Resumed >= last.Total {
		t.Errorf("resumed %d of %d trials, want a partial replay of at least 20", last.Resumed, last.Total)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed campaign diverged from uninterrupted run")
	}
}
