// Package fuzz is the property-based fuzzing engine over internal/scenario:
// it draws seed-deterministic random scenarios (topology, link parameters,
// workloads, failures, MitM taps, Blink deployments), shrinks a failing
// scenario to a minimal reproducer, and persists reproducers as corpus
// entries that replay as regression tests. Campaigns — running each drawn
// scenario under the full audit-oracle stack, in parallel and resumably —
// are the fuzz job kind of internal/campaign.
//
// Everything is a pure function of seeds: scenario i of a campaign depends
// only on (root seed, i) — never on worker count or scheduling — so a
// failure found on a 16-way run reproduces identically with -parallel 1.
package fuzz

import (
	"fmt"
	"math"

	"dui/internal/scenario"
	"dui/internal/stats"
)

// GenConfig bounds the random scenario generator. The defaults are sized
// for test-speed campaigns (hundreds of seeds in seconds, race-enabled);
// nightly runs raise them.
type GenConfig struct {
	// MaxNodes caps the topology size (minimum 3 takes effect; at least
	// two hosts are always generated).
	MaxNodes int
	// MaxWorkloads, MaxFlows, and MaxPPS cap traffic volume.
	MaxWorkloads int
	MaxFlows     int
	MaxPPS       float64
	// MaxDuration caps the simulated horizon (seconds).
	MaxDuration float64
	// FaultModes opens the benign-fault plane to the generator: gray
	// failure, link flapping, bandwidth degradation, and router
	// crash/restart specs are drawn after all classic draws, so for any
	// seed the classic portion of the scenario is bit-identical with the
	// flag on or off. Default off — existing campaigns are unchanged.
	FaultModes bool
}

// Defaults fills zero fields and returns the config.
func (c GenConfig) Defaults() GenConfig {
	if c.MaxNodes <= 0 {
		c.MaxNodes = 12
	}
	if c.MaxNodes < 3 {
		c.MaxNodes = 3
	}
	if c.MaxWorkloads <= 0 {
		c.MaxWorkloads = 3
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 8
	}
	if c.MaxPPS <= 0 {
		c.MaxPPS = 20
	}
	if c.MaxDuration <= 0 {
		c.MaxDuration = 10
	}
	return c
}

// Generate draws the scenario for one seed. The result always passes
// Validate: every random choice is made inside its legal domain, and the
// structural choices (spanning-tree topology, host-only workload
// endpoints, next hops adjacent to the Blink router) are correct by
// construction.
func Generate(seed uint64, cfg GenConfig) *scenario.Scenario {
	cfg = cfg.Defaults()
	rng := stats.NewRNG(seed)
	s := &scenario.Scenario{
		Name: fmt.Sprintf("gen-%016x", seed),
		Seed: seed,
	}
	s.Duration = 2 + rng.Float64()*(cfg.MaxDuration-2)

	// Topology: random node kinds with at least two hosts, a random
	// spanning tree (connected by construction), plus a few extra edges
	// for path diversity.
	n := 3 + rng.IntN(cfg.MaxNodes-2)
	var hosts []int
	for i := 0; i < n; i++ {
		router := rng.Float64() < 0.4
		if router {
			s.Nodes = append(s.Nodes, scenario.NodeSpec{Name: fmt.Sprintf("r%d", i), Router: true})
		} else {
			s.Nodes = append(s.Nodes, scenario.NodeSpec{Name: fmt.Sprintf("h%d", i)})
			hosts = append(hosts, i)
		}
	}
	for len(hosts) < 2 {
		// Flip routers back to hosts, last first, until two hosts exist.
		for i := n - 1; i >= 0 && len(hosts) < 2; i-- {
			if s.Nodes[i].Router {
				s.Nodes[i] = scenario.NodeSpec{Name: fmt.Sprintf("h%d", i)}
				hosts = append(hosts, i)
			}
		}
	}
	for i := 1; i < n; i++ {
		s.Links = append(s.Links, genLink(rng, i, rng.IntN(i)))
	}
	for e := rng.IntN(n/2 + 1); e > 0; e-- {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b {
			continue
		}
		s.Links = append(s.Links, genLink(rng, a, b))
	}

	// Workloads between distinct random hosts.
	for w := 1 + rng.IntN(cfg.MaxWorkloads); w > 0; w-- {
		from := hosts[rng.IntN(len(hosts))]
		to := hosts[rng.IntN(len(hosts))]
		if from == to {
			continue
		}
		ws := scenario.WorkloadSpec{
			From: from, To: to,
			Flows: 1 + rng.IntN(cfg.MaxFlows),
			PPS:   1 + rng.Float64()*(cfg.MaxPPS-1),
			Until: s.Duration * (0.5 + 0.5*rng.Float64()),
		}
		if rng.Float64() < 0.35 {
			ws.Kind = scenario.KindAttack
			if rng.Float64() < 0.3 {
				ws.RetransmitFrom = -1 // never storms
			} else {
				ws.RetransmitFrom = rng.Float64() * ws.Until
			}
			ws.MimicRTO = rng.Float64() < 0.3
		} else {
			ws.Kind = scenario.KindLegit
			if rng.Float64() < 0.7 {
				ws.MeanDur = 0.5 + rng.Float64()*3
			}
		}
		s.Workloads = append(s.Workloads, ws)
	}

	// Failures, biased into the middle of the workload window so queues
	// are populated when the link goes down.
	for f := rng.IntN(3); f > 0; f-- {
		downAt := s.Duration * (0.2 + 0.6*rng.Float64())
		fs := scenario.FailureSpec{Link: rng.IntN(len(s.Links)), DownAt: downAt}
		if rng.Float64() < 0.6 {
			fs.UpAt = downAt + rng.Float64()*(s.Duration-downAt)
			if fs.UpAt <= fs.DownAt || fs.UpAt > s.Duration {
				fs.UpAt = 0
			}
		}
		s.Failures = append(s.Failures, fs)
	}

	// MitM taps: drops, (probabilistic) delays, spoofed injection.
	for t := rng.IntN(3); t > 0; t-- {
		ts := scenario.TapSpec{Link: rng.IntN(len(s.Links)), Dir: rng.IntN(2)}
		if rng.Float64() < 0.5 {
			ts.DropP = rng.Float64() * 0.3
		}
		if rng.Float64() < 0.5 {
			ts.Delay = 0.001 + rng.Float64()*0.1
			ts.DelayP = rng.Float64()
		}
		if rng.Float64() < 0.3 {
			ts.InjectPPS = 1 + rng.Float64()*10
			ts.InjectTo = hosts[rng.IntN(len(hosts))]
		}
		s.Taps = append(s.Taps, ts)
	}

	// Blink deployment on a router that has neighbors, guarding a random
	// victim host with the router's neighbors as the preference list.
	if rng.Float64() < 0.4 {
		if b := genBlink(rng, s, hosts); b != nil {
			s.Blink = b
		}
	}

	if cfg.FaultModes {
		genFaults(rng, s)
	}
	return s
}

// genFaults appends benign-fault specs — the joint fault×attack space the
// nightly campaign explores. All draws happen after every classic draw, so
// enabling FaultModes never perturbs the classic portion of any seed's
// scenario. Intensities are moderate: the oracles must keep holding under
// benign chaos, so the point is coverage of the fault plane's machinery,
// not making scenarios fail.
func genFaults(rng *stats.RNG, s *scenario.Scenario) {
	for g := rng.IntN(3); g > 0; g-- {
		gs := scenario.GraySpec{Link: rng.IntN(len(s.Links)), Dir: rng.IntN(2)}
		if rng.Float64() < 0.6 {
			gs.LossP = rng.Float64() * 0.2
		}
		if rng.Float64() < 0.4 {
			gs.DupP = rng.Float64() * 0.15
		}
		if rng.Float64() < 0.3 {
			gs.CorruptP = rng.Float64() * 0.1
		}
		if rng.Float64() < 0.5 {
			gs.Jitter = 0.001 + rng.Float64()*0.05
			gs.JitterP = rng.Float64()
		}
		if gs.LossP == 0 && gs.DupP == 0 && gs.CorruptP == 0 && gs.Jitter == 0 {
			gs.LossP = 0.05
		}
		s.Gray = append(s.Gray, gs)
	}
	for f := rng.IntN(2); f > 0; f-- {
		start := s.Duration * (0.1 + 0.4*rng.Float64())
		end := start + (s.Duration-start)*(0.3+0.7*rng.Float64())
		if end > s.Duration {
			end = s.Duration
		}
		s.Flaps = append(s.Flaps, scenario.FlapSpec{
			Link: rng.IntN(len(s.Links)), Start: start, End: end,
			MeanDown: 0.05 + rng.Float64()*0.5,
			MeanUp:   0.1 + rng.Float64(),
			MinDwell: 0.01 + rng.Float64()*0.05,
		})
	}
	for d := rng.IntN(2); d > 0; d-- {
		at := s.Duration * (0.2 + 0.5*rng.Float64())
		ds := scenario.DegradeSpec{
			Link: rng.IntN(len(s.Links)), At: at,
			Factor: 0.05 + rng.Float64()*0.95,
		}
		if rng.Float64() < 0.7 {
			ds.Until = at + (0.1+0.9*rng.Float64())*(s.Duration-at)
			if ds.Until <= ds.At || ds.Until > s.Duration {
				ds.Until = 0
			}
		}
		s.Degrades = append(s.Degrades, ds)
	}
	var routers []int
	for i, ns := range s.Nodes {
		if ns.Router {
			routers = append(routers, i)
		}
	}
	if len(routers) > 0 && rng.Float64() < 0.5 {
		at := s.Duration * (0.2 + 0.5*rng.Float64())
		cs := scenario.CrashSpec{Node: routers[rng.IntN(len(routers))], At: at}
		if rng.Float64() < 0.8 {
			cs.RestartAt = at + (0.05+0.9*rng.Float64())*(s.Duration-at)
			if cs.RestartAt <= cs.At || cs.RestartAt > s.Duration {
				cs.RestartAt = 0
			}
		}
		s.Crashes = append(s.Crashes, cs)
	}
}

// genLink draws link parameters: a 30% chance of infinite rate, otherwise
// log-uniform over 100 kbit/s .. 100 Mbit/s; log-uniform delay between
// 0.1 ms and 50 ms; a 40% chance of an unbounded queue, otherwise a small
// drop-tail cap.
func genLink(rng *stats.RNG, a, b int) scenario.LinkSpec {
	l := scenario.LinkSpec{A: a, B: b}
	if rng.Float64() >= 0.3 {
		l.RateBps = math.Exp(rng.Uniform(math.Log(1e5), math.Log(1e8)))
	}
	l.Delay = math.Exp(rng.Uniform(math.Log(1e-4), math.Log(0.05)))
	if rng.Float64() >= 0.4 {
		l.QueueCap = 2 + rng.IntN(63)
	}
	return l
}

func genBlink(rng *stats.RNG, s *scenario.Scenario, hosts []int) *scenario.BlinkSpec {
	var routers []int
	for i, ns := range s.Nodes {
		if ns.Router {
			routers = append(routers, i)
		}
	}
	if len(routers) == 0 {
		return nil
	}
	r := routers[rng.IntN(len(routers))]
	// Distinct neighbors of r, in node order.
	var hops []int
	seen := map[int]bool{}
	for _, l := range s.Links {
		peer := -1
		if l.A == r {
			peer = l.B
		} else if l.B == r {
			peer = l.A
		}
		if peer >= 0 && !seen[peer] {
			seen[peer] = true
			hops = append(hops, peer)
		}
	}
	if len(hops) == 0 {
		return nil
	}
	// Random order, at most three.
	rng.Shuffle(len(hops), func(i, j int) { hops[i], hops[j] = hops[j], hops[i] })
	if len(hops) > 3 {
		hops = hops[:3]
	}
	return &scenario.BlinkSpec{
		Router:   r,
		Victim:   hosts[rng.IntN(len(hosts))],
		NextHops: hops,
		Cells:    []int{4, 8, 16}[rng.IntN(3)],
	}
}
