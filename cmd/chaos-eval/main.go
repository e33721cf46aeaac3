// Command chaos-eval sweeps Blink's failure-inference stack against the
// benign-fault plane (internal/faults): a gray-failure process of scaled
// intensity ε runs on the primary path while (a) a guarded deployment
// faces a genuine mid-run failure and (b) an unguarded deployment faces no
// failure at all. Per intensity the sweep reports
//
//   - detect rate: guarded runs that still executed the genuine failover,
//   - median detection latency of those failovers,
//   - false-veto rate: guarded runs where the RTO-plausibility supervisor
//     blocked the genuine failover (§5 criterion ii under chaos), and
//   - false-reroute rate: unguarded, failure-free runs where gray noise
//     alone pushed the selector past its threshold.
//
// The trial body lives in internal/campaign's chaos job kind; this binary
// is a thin client over it. -json emits the canonical campaign result
// JSON instead of the table, and -server submits the sweep to a running
// duid server — both byte/row-identical to inline execution.
//
// Every trial is a pure function of (root seed, trial index): the output
// is bit-identical at any -parallel setting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dui/internal/campaign"
	"dui/internal/cli"
)

func main() {
	var (
		trials   = flag.Int("trials", 10, "trials per intensity level")
		seed     = cli.Seed("root seed (trial i derives its own stream)")
		parallel = cli.Parallel("trial workers (0 = all cores; output identical at any setting)")
		levels   = flag.Int("levels", 6, "gray intensity levels, evenly spaced over [0, 1]")
		csvOut   = flag.Bool("csv", false, "emit CSV instead of the table")
		jsonOut  = flag.Bool("json", false, "emit the canonical campaign result JSON instead of the table")
		server   = flag.String("server", "", "submit the sweep to the duid server at this URL")
		quick    = flag.Bool("quick", false, "reduced sweep (3 levels x 3 trials) for smoke runs")
	)
	cli.Parse("chaos-eval")
	if *quick {
		*trials, *levels = 3, 3
	}
	if *jsonOut && *csvOut {
		fmt.Fprintln(os.Stderr, "chaos-eval: -json and -csv are mutually exclusive")
		os.Exit(2)
	}

	spec := campaign.JobSpec{Kind: campaign.KindChaos, Chaos: &campaign.ChaosSpec{
		Trials: *trials, Levels: *levels, RootSeed: *seed,
	}}
	raw, _, err := cli.DispatchCampaign(context.Background(), "chaos-eval", spec, campaign.DispatchOpts{Server: *server, Workers: *parallel}, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos-eval:", err)
		os.Exit(1)
	}
	if *jsonOut {
		os.Stdout.Write(raw)
		return
	}
	var res campaign.ChaosResult
	if err := json.Unmarshal(raw, &res); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-eval: bad result:", err)
		os.Exit(1)
	}

	if *csvOut {
		fmt.Println("eps,trials,detect_rate,median_latency_s,false_veto_rate,false_reroute_rate")
	} else {
		fmt.Printf("Blink failure inference under gray failure (%d trials/level, seed %d)\n", res.Trials, res.RootSeed)
		fmt.Printf("%6s %12s %16s %16s %18s\n", "eps", "detect", "median latency", "false vetoes", "false reroutes")
	}
	for _, r := range res.Rows {
		if *csvOut {
			fmt.Printf("%.2f,%d,%.4f,%.4f,%.4f,%.4f\n",
				r.Eps, r.Trials, r.DetectRate, r.MedianLatency, r.FalseVetoRate, r.FalseRerouteRate)
		} else {
			fmt.Printf("%6.2f %11.0f%% %15.3fs %15.0f%% %17.0f%%\n",
				r.Eps, 100*r.DetectRate, r.MedianLatency, 100*r.FalseVetoRate, 100*r.FalseRerouteRate)
		}
	}
}
