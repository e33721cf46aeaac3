// Command simfuzz runs the property-based fuzzing campaign over random
// simulation scenarios (internal/fuzz): each seed becomes a randomized
// topology with heterogeneous links, heavy-tailed workloads, scheduled
// failures, MitM taps, and optional Blink deployments, executed twice
// under the full audit-oracle stack. Failures are shrunk to minimal
// reproducers and optionally written to a corpus directory.
//
// Usage:
//
//	simfuzz [-seeds N] [-seed S] [-parallel W] [-budget D] [-shrink]
//	        [-corpus DIR] [-max-nodes N] [-faults] [-checkpoint FILE] [-quiet]
//	simfuzz -json [campaign flags]
//	simfuzz -server URL [campaign flags]
//	simfuzz -replay DIR
//
// Every mode runs the campaign fuzz kind of internal/campaign; the text
// summary is rendered from its canonical result. The verdict is a pure
// function of (-seed, -seeds, -max-nodes, -faults, -shrink): any
// -parallel value finds the same failures. -faults opens the benign-fault
// plane (gray failure, flapping, degradation, crash/restart) to the
// generator. -checkpoint FILE is the campaign's job journal: every
// completed trial's verdict is recorded there, and a campaign killed
// mid-run resumes from it to an identical final verdict. The journal is
// bound to the campaign spec and the build revision, so resuming needs
// the same flags and the same build. -budget D is a deadline: when it
// expires, simfuzz reports how many trials completed and exits 2, and a
// rerun with the same -checkpoint continues the campaign. -replay
// re-checks every corpus entry in DIR against current code instead of
// fuzzing.
//
// -json emits the canonical campaign result JSON instead of the text
// summary; -server submits the same campaign to a running duid server
// and prints the result it serves. The two outputs are byte-identical —
// the determinism gate CI's duid-smoke job enforces with cmp. Both modes
// reject the process-local flags (-budget, -checkpoint, -corpus,
// -replay): a campaign result must be a pure function of the spec, and
// the server journals durability itself.
//
// Exit status 0 when all scenarios (or corpus entries) pass, 1 when the
// oracles caught failures, 2 on usage or internal errors or an expired
// -budget.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"dui/internal/campaign"
	"dui/internal/cli"
	"dui/internal/fuzz"
)

func main() {
	os.Exit(run())
}

// run is the whole command; it returns the process exit code.
func run() int {
	seeds := flag.Int("seeds", 200, "number of random scenarios to run")
	seed := cli.Seed("root seed (expands into per-scenario seeds)")
	parallel := cli.Parallel("worker pool size (0 = GOMAXPROCS)")
	budget := flag.Duration("budget", 0, "wall-time deadline; an expired campaign exits 2 and resumes from -checkpoint (0 = none)")
	shrink := flag.Bool("shrink", false, "shrink each failure to a minimal reproducer")
	corpus := flag.String("corpus", "", "directory to write failure reproducers to")
	maxNodes := flag.Int("max-nodes", 0, "topology size cap for generated scenarios (0 = default)")
	faultModes := flag.Bool("faults", false, "draw benign-fault specs (gray failure, flapping, degradation, crash/restart)")
	checkpoint := flag.String("checkpoint", "", "campaign job journal: record per-trial verdicts here and resume a killed campaign from it (same flags and build)")
	replay := flag.String("replay", "", "replay corpus entries from this directory instead of fuzzing")
	quiet := flag.Bool("quiet", false, "suppress per-failure and progress output; only the final summary")
	jsonOut := flag.Bool("json", false, "emit the canonical campaign result JSON (internal/campaign fuzz kind) instead of the text summary")
	server := flag.String("server", "", "submit the campaign to the duid server at this URL and print the result it serves")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simfuzz [-seeds N] [-seed S] [-parallel W] [-budget D] [-shrink] [-corpus DIR] [-max-nodes N] [-faults] [-checkpoint FILE] [-quiet]\n")
		fmt.Fprintf(os.Stderr, "       simfuzz -json | -server URL [campaign flags]\n")
		fmt.Fprintf(os.Stderr, "       simfuzz -replay DIR\n")
		flag.PrintDefaults()
	}
	cli.Parse("simfuzz")
	if flag.NArg() != 0 {
		flag.Usage()
		return 2
	}

	jsonMode := *jsonOut || *server != ""
	if jsonMode && (*budget != 0 || *checkpoint != "" || *corpus != "" || *replay != "") {
		fmt.Fprintln(os.Stderr, "simfuzz: -json/-server campaigns reject the process-local flags -budget, -checkpoint, -corpus, -replay")
		return 2
	}
	if *replay != "" {
		return replayCorpus(*replay, *quiet)
	}

	ctx := context.Background()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}
	spec := campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{
		Seeds: *seeds, RootSeed: *seed, MaxNodes: *maxNodes,
		Faults: *faultModes, Shrink: *shrink,
	}}
	raw, prog, err := cli.DispatchCampaign(ctx, "simfuzz", spec,
		campaign.DispatchOpts{Server: *server, Workers: *parallel, Journal: *checkpoint}, *quiet)
	if err != nil {
		switch {
		case !errors.Is(ctx.Err(), context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
		case *checkpoint != "":
			fmt.Fprintf(os.Stderr, "simfuzz: -budget %s expired after %d/%d trials; rerun with the same flags to resume from %s\n",
				*budget, prog.Done, prog.Total, *checkpoint)
		default:
			fmt.Fprintf(os.Stderr, "simfuzz: -budget %s expired after %d/%d trials; run with -checkpoint FILE to make the campaign resumable\n",
				*budget, prog.Done, prog.Total)
		}
		return 2
	}
	if jsonMode {
		os.Stdout.Write(raw)
	}
	var res campaign.FuzzResult
	if err := json.Unmarshal(raw, &res); err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: bad result: %v\n", err)
		return 2
	}
	if !jsonMode {
		if err := writeText(&res, prog.Resumed, *seed, *corpus, *quiet); err != nil {
			fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
			return 2
		}
	}
	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}

// writeText renders the text summary of a finished campaign — one FAIL
// line per failure (plus its shrink result), the corpus files written,
// then the totals — and saves the reproducers to corpusDir, if set.
func writeText(res *campaign.FuzzResult, resumed int, rootSeed uint64, corpusDir string, quiet bool) error {
	if !quiet {
		for _, f := range res.Failures {
			fmt.Printf("FAIL trial=%d seed=%#x rule=%s (%s): %s\n",
				f.Trial, f.Seed, f.Rule, f.Scenario.Size(), f.Violations[0])
			if f.Shrunk != nil {
				fmt.Printf("  shrunk in %d runs to: %s\n", f.ShrinkRuns, f.Shrunk.Size())
			}
		}
	}
	if corpusDir != "" {
		for _, f := range res.Failures {
			scn := f.Scenario
			if f.Shrunk != nil {
				scn = f.Shrunk
			}
			path, err := fuzz.SaveEntry(corpusDir, &fuzz.Entry{
				Name:     fmt.Sprintf("seed-%016x", f.Seed),
				Rule:     f.Rule,
				Note:     fmt.Sprintf("found by simfuzz -seed %d (trial %d): %s", rootSeed, f.Trial, f.Violations[0]),
				Scenario: *scn,
			})
			if err != nil {
				return err
			}
			if !quiet {
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
	fmt.Printf("simfuzz: %d/%d scenarios run, %d failures", res.Seeds, res.Seeds, len(res.Failures))
	if resumed > 0 {
		fmt.Printf(" (%d resumed from checkpoint)", resumed)
	}
	fmt.Println()
	return nil
}

// replayCorpus re-validates every persisted reproducer, returning the
// process exit code.
func replayCorpus(dir string, quiet bool) int {
	entries, err := fuzz.LoadCorpus(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
		return 2
	}
	failed := 0
	for _, e := range entries {
		if err := fuzz.Replay(e); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "simfuzz: %v\n", err)
		} else if !quiet {
			fmt.Printf("ok %s (rule %s)\n", e.Name, e.Rule)
		}
	}
	fmt.Printf("simfuzz: %d corpus entries, %d failed\n", len(entries), failed)
	if failed > 0 {
		return 1
	}
	return 0
}
