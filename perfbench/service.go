package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dui/internal/campaign"
	"dui/internal/fuzz"
	"dui/internal/runner"
	"dui/internal/scenario"
	"dui/internal/stats"
)

// The service workload drives an in-process campaign.Server over
// loopback HTTP with campaign.Client, from two closed-loop clients:
//
//   - the writer submits small fuzz jobs with distinct root seeds, so
//     each misses the result cache and is executed, journaled and cached;
//   - the reader resubmits specs of the pool filled during set-up, so
//     each is a cache hit.

const (
	poolSize  = 32 // reader's working set of finished specs
	fuzzSeeds = 4  // scenarios per writer job
	// verifyEvery: the timed run re-executes every verifyEvery-th writer
	// job inline after the timed body and compares bytes.
	verifyEvery = 8
)

// PathSeed purpose tags for the two clients' spec streams.
const (
	tagWriter = 0x5752 // "WR"
	tagPool   = 0x5244 // "RD"
)

func fuzzSpec(seed uint64, tag, i uint64) campaign.JobSpec {
	root := stats.PathSeed(seed, tag, i)
	if root == 0 {
		root = 1 // 0 canonicalizes to the default seed 1
	}
	return campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{Seeds: fuzzSeeds, RootSeed: root}}
}

// writerSpec is the writer's i-th job; poolSpec the reader's i-th.
func writerSpec(seed uint64, i int) campaign.JobSpec { return fuzzSpec(seed, tagWriter, uint64(i)) }
func poolSpec(seed uint64, i int) campaign.JobSpec   { return fuzzSpec(seed, tagPool, uint64(i)) }

type poolEntry struct {
	spec campaign.JobSpec
	key  string
	want []byte
}

// service is one running server with its client and filled pool.
type service struct {
	dir    string
	srv    *campaign.Server
	hs     *http.Server
	served chan struct{}
	cl     *campaign.Client
	pool   []poolEntry
}

// startService opens a server on a fresh state directory, serves it on
// a loopback port, and fills the reader's pool through it.
func startService(stateRoot string, seed uint64) (*service, error) {
	dir, err := os.MkdirTemp(stateRoot, "service-")
	if err != nil {
		return nil, err
	}
	srv, err := campaign.NewServer(dir, campaign.Options{Workers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	s.cl = campaign.NewClient("http://" + ln.Addr().String())
	for i := 0; i < poolSize; i++ {
		spec := poolSpec(seed, i)
		canon, err := spec.Canon()
		if err != nil {
			s.close()
			return nil, err
		}
		j, err := s.job(context.Background(), spec)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("filling pool: %w", err)
		}
		s.pool = append(s.pool, poolEntry{spec: spec, key: campaign.Key(canon), want: j.data})
	}
	return s, nil
}

// close stops the HTTP server and the campaign server, waits for both,
// and removes the state directory.
func (s *service) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// jobResult is one submit-to-bytes round trip through the API.
type jobResult struct {
	data                     []byte
	cached                   bool
	submit, wait, fetch, all time.Duration
}

func (s *service) job(ctx context.Context, spec campaign.JobSpec) (jobResult, error) {
	var j jobResult
	t0 := time.Now()
	st, err := s.cl.Submit(ctx, spec)
	t1 := time.Now()
	if err == nil && !st.State.Terminal() {
		st, err = s.cl.Wait(ctx, st.ID, nil)
	}
	t2 := time.Now()
	if err != nil {
		return j, err
	}
	if st.State != campaign.JobDone {
		return j, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	j.data, err = s.cl.Result(ctx, st.ID)
	t3 := time.Now()
	j.cached = st.Cached
	j.submit, j.wait, j.fetch, j.all = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	return j, err
}

// checkFuzz validates a fuzz job's result bytes against its spec.
func checkFuzz(spec campaign.JobSpec, data []byte) error {
	var res campaign.FuzzResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("fuzz result does not decode: %w", err)
	}
	if res.Kind != campaign.KindFuzz || res.Seeds != spec.Fuzz.Seeds || res.RootSeed != spec.Fuzz.RootSeed {
		return fmt.Errorf("fuzz result is kind %q seeds %d root %d, want seeds %d root %d",
			res.Kind, res.Seeds, res.RootSeed, spec.Fuzz.Seeds, spec.Fuzz.RootSeed)
	}
	return nil
}

// sameBytes reports a mismatch between two results of one spec.
func sameBytes(what string, got, want []byte) error {
	if string(got) != string(want) {
		return fmt.Errorf("%s: %d bytes (sha256 %s) differ from the expected %d bytes (sha256 %s)",
			what, len(got), digest(got), len(want), digest(want))
	}
	return nil
}

func inline(spec campaign.JobSpec, journal string) ([]byte, error) {
	return campaign.Execute(context.Background(), spec, campaign.Env{Workers: 1, Journal: journal})
}

// op is one client operation's outcome.
type op struct {
	j   jobResult
	i   int
	err error
}

// Per pass, the writer submits passJobs fresh jobs while the reader
// resubmits passHits pooled specs. The counts are sized so that both
// clients take a similar share of the pass, so either one slowing down
// lengthens it.
const (
	passJobs = 8
	passHits = 256
)

// pass is one pass of the service workload's fixed work.
type pass struct {
	wall, cpu     time.Duration
	writes, reads []op
}

// pass runs pass number p: writer jobs p*passJobs.. and reader hits
// p*passHits.., the two clients side by side. tr and probe are nil in
// untraced passes.
func (s *service) pass(seed uint64, p int, tr *tracer, probe *layerProbe) pass {
	ctx := context.Background()
	var ps pass
	var wg sync.WaitGroup
	t0, c0 := time.Now(), cpuTime()
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := p * passJobs; i < (p+1)*passJobs; i++ {
			spec := writerSpec(seed, i)
			id := tr.begin("job", "", -1, i)
			j, err := s.job(ctx, spec)
			tr.end(id)
			if err == nil && j.cached {
				err = errors.New("writer job was served from the cache")
			}
			if err == nil {
				err = checkFuzz(spec, j.data)
			}
			if err == nil && probe != nil {
				err = probe.writer(tr, i, spec, j)
			}
			ps.writes = append(ps.writes, op{j: j, i: i, err: err})
		}
	}()
	go func() {
		defer wg.Done()
		for i := p * passHits; i < (p+1)*passHits; i++ {
			e := s.pool[i%len(s.pool)]
			id := tr.begin("hit", "", -1, i)
			j, err := s.job(ctx, e.spec)
			tr.end(id)
			if err == nil && !j.cached {
				err = errors.New("reader resubmission missed the cache")
			}
			if err == nil {
				err = sameBytes("cache hit", j.data, e.want)
			}
			if err == nil && probe != nil {
				err = probe.reader(tr, i, e)
			}
			ps.reads = append(ps.reads, op{j: j, i: i, err: err})
		}
	}()
	wg.Wait()
	ps.wall, ps.cpu = time.Since(t0), cpuTime()-c0
	return ps
}

// passes runs passes numbered from p0 until budget is spent, stopping
// before a pass the budget has no room for (the first always runs).
func (s *service) passes(seed uint64, p0 int, budget time.Duration, tr *tracer, probe *layerProbe) []pass {
	var out []pass
	start := time.Now()
	for len(out) == 0 || time.Since(start)+out[len(out)-1].wall <= budget {
		out = append(out, s.pass(seed, p0+len(out), tr, probe))
	}
	return out
}

// tally counts the ops of passes and returns the latencies, in ms, of
// the successful writer jobs and reader hits.
func (r *result) tally(passes []pass) (jobMS, hitMS []float64) {
	for _, p := range passes {
		for _, w := range p.writes {
			r.check(w.err)
			if w.err == nil {
				jobMS = append(jobMS, ms(w.j.all))
			}
		}
		for _, h := range p.reads {
			r.check(h.err)
			if h.err == nil {
				hitMS = append(hitMS, ms(h.j.all))
			}
		}
	}
	return jobMS, hitMS
}

// medianPass returns the median wall and CPU time of passes, in seconds.
func medianPass(passes []pass) (wall, cpu float64) {
	var ws, cs []float64
	for _, p := range passes {
		ws = append(ws, p.wall.Seconds())
		cs = append(cs, p.cpu.Seconds())
	}
	return median(ws), median(cs)
}

// runService is the service workload. Timed: passes until the budget is
// spent; wall_s and cpu_s are the median pass's. Traced: untraced passes
// for the first half of the budget, then traced passes with the layer
// probes for the second.
func runService(o opts, r *result) {
	var s *service
	r.setup(func() error {
		var err error
		s, err = startService(o.state, o.seed)
		return err
	}, func() { s.close() })
	if s == nil {
		return
	}
	defer s.close()

	if o.trace {
		traceService(o, s, r)
		return
	}
	body := readUsage()
	passes := s.passes(o.seed, 0, o.seconds, nil, nil)
	elapsed := time.Since(body.wall)
	r.noise(body)
	jobMS, hitMS := r.tally(passes)
	jobs, hits := len(passes)*passJobs, len(passes)*passHits
	r.note("service: %d passes, %d writer jobs, %d reader hits over %.3fs, pool %d", len(passes), jobs, hits, elapsed.Seconds(), len(s.pool))

	// Output checks outside the timed body: every pool entry and every
	// verifyEvery-th writer job must equal an inline execution.
	for _, e := range s.pool {
		want, err := inline(e.spec, "")
		if err == nil {
			err = sameBytes("pool entry vs inline Execute", e.want, want)
		}
		r.check(err)
	}
	for _, p := range passes {
		for _, w := range p.writes {
			if w.err != nil || w.i%verifyEvery != 0 {
				continue
			}
			want, err := inline(writerSpec(o.seed, w.i), "")
			if err == nil {
				err = sameBytes("writer result vs inline Execute", w.j.data, want)
			}
			r.check(err)
		}
	}

	wall, cpu := medianPass(passes)
	r.set("wall_s", wall, "s")
	r.set("cpu_s", cpu, "s")
	r.set("peak_rss_mib", peakRSSMiB(), "MiB")
	r.pct("job_ms.p50", jobMS, 0.5, "ms")
	r.pct("job_ms.p90", jobMS, 0.9, "ms")
	r.pct("hit_ms.p50", hitMS, 0.5, "ms")
	r.pct("hit_ms.p99", hitMS, 0.99, "ms")
	r.set("jobs_per_s", float64(jobs)/elapsed.Seconds(), "1/s")
	r.set("hits_per_s", float64(hits)/elapsed.Seconds(), "1/s")
}

func traceService(o opts, s *service, r *result) {
	plain := s.passes(o.seed, 0, o.seconds/2, nil, nil)
	r.tally(plain)
	untraced, _ := medianPass(plain)

	tr := newTracer()
	probe, err := newLayerProbe(s)
	if err != nil {
		r.check(err)
		return
	}
	defer os.RemoveAll(probe.dir)
	u0 := readUsage()
	traced := s.passes(o.seed, len(plain), o.seconds/2, tr, probe)
	r.noise(u0)
	r.runtimeLayer(u0)
	jobMS, hitMS := r.tally(traced)
	r.note("service: %d untraced and %d traced passes", len(plain), len(traced))

	probe.report(r, tr, s)
	r.pct("traced.job_ms.p50", jobMS, 0.5, "ms")
	r.pct("traced.hit_ms.p50", hitMS, 0.5, "ms")
	tracedWall, _ := medianPass(traced)
	r.set("untraced.wall_s", untraced, "s")
	r.set("traced.wall_s", tracedWall, "s")
	r.spans(o, tr)
}

// layerProbe does the traced run's extra per-op work: inline Execute
// with a journal, the scenario replay, and direct cache calls.
type layerProbe struct {
	dir   string
	put   *campaign.Cache // a private cache the writer's results go to
	get   *campaign.Cache // the server's cache, read by the reader
	mu    sync.Mutex
	spans map[string][]float64 // per-op durations by layer, in ms
}

func newLayerProbe(s *service) (*layerProbe, error) {
	dir, err := os.MkdirTemp(filepath.Dir(s.dir), "probe-")
	if err != nil {
		return nil, err
	}
	put, err := campaign.NewCache(filepath.Join(dir, "cache"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	get, err := campaign.NewCache(filepath.Join(s.dir, "cache"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &layerProbe{dir: dir, put: put, get: get, spans: map[string][]float64{}}, nil
}

func (p *layerProbe) add(layer string, d time.Duration) {
	p.mu.Lock()
	p.spans[layer] = append(p.spans[layer], ms(d))
	p.mu.Unlock()
}

// timed runs f inside a span and records its duration under layer.
func (p *layerProbe) timed(tr *tracer, layer string, op int, f func()) {
	t0 := time.Now()
	tr.wrap(layer, "", -1, op, f)
	p.add(layer, time.Since(t0))
}

// writer probes the layers under one writer job: the client spans, an
// inline Execute with a journal file (whose bytes must equal the
// server's), the scenario runs of the job's seeds, and a cache Put.
func (p *layerProbe) writer(tr *tracer, i int, spec campaign.JobSpec, j jobResult) error {
	p.add("campaign.submit", j.submit)
	p.add("campaign.wait", j.wait)
	p.add("campaign.result", j.fetch)
	var data []byte
	var err error
	journal := filepath.Join(p.dir, fmt.Sprintf("w%06d.journal", i))
	p.timed(tr, "campaign.exec", i, func() { data, err = inline(spec, journal) })
	if err != nil {
		return err
	}
	if err := sameBytes("inline Execute vs server result", data, j.data); err != nil {
		return err
	}
	p.timed(tr, "scenario", i, func() {
		gen := spec.Fuzz.GenConfig()
		for _, seed := range runner.Seeds(spec.Fuzz.RootSeed, spec.Fuzz.Seeds) {
			scenario.RunChecked(fuzz.Generate(seed, gen), scenario.Options{})
		}
	})
	canon, err := spec.Canon()
	if err != nil {
		return err
	}
	p.timed(tr, "cache.put", i, func() { err = p.put.Put(campaign.Key(canon), data) })
	return err
}

// reader probes the cache read under one hit.
func (p *layerProbe) reader(tr *tracer, i int, e poolEntry) error {
	var data []byte
	var ok bool
	var err error
	p.timed(tr, "cache.get", i, func() { data, ok, err = p.get.Get(e.key) })
	if err == nil && !ok {
		err = errors.New("cache.Get missed a pooled key")
	}
	if err == nil {
		err = sameBytes("cache.Get", data, e.want)
	}
	return err
}

func (p *layerProbe) report(r *result, tr *tracer, s *service) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r.pct("campaign.submit_ms.p50", p.spans["campaign.submit"], 0.5, "ms")
	r.pct("campaign.wait_ms.p50", p.spans["campaign.wait"], 0.5, "ms")
	r.pct("campaign.result_ms.p50", p.spans["campaign.result"], 0.5, "ms")
	r.pct("campaign.exec_ms.p50", p.spans["campaign.exec"], 0.5, "ms")
	r.pct("scenario.ms", p.spans["scenario"], 0.5, "ms")
	us := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 1000 * x
		}
		return out
	}
	r.pct("cache.get_us.p50", us(p.spans["cache.get"]), 0.5, "us")
	r.pct("cache.put_us.p50", us(p.spans["cache.put"]), 0.5, "us")
	cacheDir := filepath.Join(s.dir, "cache")
	total := dirBytes(s.dir)
	cache := dirBytes(cacheDir)
	r.set("journal.bytes", float64(total-cache), "B")
	r.set("cache.bytes", float64(cache), "B")
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
