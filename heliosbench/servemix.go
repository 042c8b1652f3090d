package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/serve"
	"helios/internal/workloads"
)

const (
	// serveBudget is the reduced instruction budget every request asks
	// for; cold requests ask for a little more (see mixGen.next).
	serveBudget = 5000
	// serveConns is the number of client connections: two users on a
	// 2-core host.
	serveConns = 2
	// Class counts in every block of 100 requests, so each phase has
	// the same mix whatever the seed.
	hitsPerBlock   = 80
	missesPerBlock = 17
	coldsPerBlock  = 3

	// burstCount bursts of burstRequests measure capacity (the median
	// burst is reported) and latency (over every burst request, enough
	// for a p99 with thirty samples beyond it).
	burstCount    = 6
	burstRequests = 500
	// minStepRequests is the fewest requests at one offered rate: enough
	// for a p99 with ten samples beyond it.
	minStepRequests = 1000
	// latencyLimit is the p99 a ladder rate must meet to count toward
	// knee_rps. Near capacity a host stall of a few tens of
	// milliseconds delays hundreds of requests while the backlog drains;
	// with a 100 ms limit such stalls failed rungs well below capacity
	// in a third of the runs, and the knee wandered over four rungs.
	latencyLimit = 250 * time.Millisecond
)

// serveLadder is the fixed ladder of offered rates, in requests/s. The
// rungs are about 1.2× apart and span the ~950 requests/s the bursts
// reach, so a change in capacity of one rung's width moves knee_rps.
// The run's time left after the bursts is shared equally among them:
// several seconds each, long enough for a backlog to show when the rate
// exceeds capacity.
var serveLadder = []float64{400, 500, 600, 700, 850, 1000, 1200}

// serveRequest is one request of the seeded mix, encoded ahead of time
// so the generator does no work on the timed path.
type serveRequest struct {
	class    string // hit, miss or cold
	workload string
	mode     fusion.Mode
	cfg      *ooo.Config // misses only
	budget   uint64
	body     []byte
}

// key identifies the request's result: repeats of a key must return
// identical statistics.
func (r *serveRequest) key() string {
	if r.cfg != nil {
		b, _ := json.Marshal(r.cfg)
		return fmt.Sprintf("%s@%d/%s", r.workload, r.budget, b)
	}
	return fmt.Sprintf("%s@%d/%s", r.workload, r.budget, r.mode)
}

// mixGen draws the seeded request mix. Every miss is a custom machine
// never requested before and every cold request an unrecorded
// workload/budget pair, so their classes hold by construction.
type mixGen struct {
	rng      *rand.Rand
	names    []string
	used     map[string]bool
	classes  []string // the rest of the current block, shuffled
	coldSeen int
}

func newMixGen(seed int64) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed)), names: workloads.Names(), used: make(map[string]bool)}
}

func (g *mixGen) next() *serveRequest {
	if len(g.classes) == 0 {
		for i := 0; i < hitsPerBlock+missesPerBlock+coldsPerBlock; i++ {
			class := "hit"
			switch {
			case i >= hitsPerBlock+missesPerBlock:
				class = "cold"
			case i >= hitsPerBlock:
				class = "miss"
			}
			g.classes = append(g.classes, class)
		}
		g.rng.Shuffle(len(g.classes), func(i, j int) { g.classes[i], g.classes[j] = g.classes[j], g.classes[i] })
	}
	r := &serveRequest{class: g.classes[0], workload: g.names[g.rng.Intn(len(g.names))], budget: serveBudget}
	g.classes = g.classes[1:]
	switch r.class {
	case "hit":
		r.mode = fusion.Modes[g.rng.Intn(len(fusion.Modes))]
	case "miss":
		for {
			cfg := g.customConfig()
			r.cfg = &cfg
			r.mode = cfg.Mode
			if k := r.key(); !g.used[k] {
				g.used[k] = true
				break
			}
		}
	default:
		// Each cold request adds one instruction to the budget, so its
		// workload/budget pair has never been recorded.
		g.coldSeen++
		r.mode = fusion.ModeHelios
		r.budget = serveBudget + uint64(g.coldSeen)
	}
	req := serve.RunRequest{Workload: r.workload, Insts: r.budget, Config: r.cfg}
	if r.cfg == nil {
		req.Mode = r.mode.String()
	}
	r.body, _ = json.Marshal(req)
	return r
}

// customConfig is a Table II machine with a seeded core geometry. Its
// redirect penalty always differs from the default, so it is never the
// default machine of its mode.
func (g *mixGen) customConfig() ooo.Config {
	pick := func(xs ...int) int { return xs[g.rng.Intn(len(xs))] }
	cfg := ooo.DefaultConfig(fusion.Modes[g.rng.Intn(len(fusion.Modes))])
	cfg.ROBSize = pick(192, 224, 256, 288, 320, 352)
	cfg.PhysRegs = cfg.ROBSize + 32
	cfg.IQSize = pick(96, 128, 160)
	cfg.LQSize = pick(64, 96, 128)
	cfg.SQSize = pick(48, 72)
	cfg.RedirectPenalty = pick(10, 11, 12, 13, 14, 16, 17, 18, 19, 20)
	return cfg
}

// serveReply is what the client kept of one response.
type serveReply struct {
	status    int
	cached    bool
	coalesced bool
	batch     int
	stats     string // digest of the statistics' JSON
	insts     float64
	cycles    float64
	err       error
}

// serveHarness is an in-process heliosd on a loopback listener.
type serveHarness struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	done   chan struct{}
}

func startServer(ctx context.Context) (*serveHarness, error) {
	cfg := serve.DefaultConfig()
	cfg.SuiteWorkers = serveConns
	sctx, cancel := context.WithCancel(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, err
	}
	h := &serveHarness{
		srv:    serve.New(sctx, cfg),
		url:    "http://" + ln.Addr().String() + "/v1/run",
		cancel: cancel,
		done:   make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.done)
		h.hs.Serve(ln)
	}()
	return h, nil
}

// stop drains the server and waits for its goroutines to end.
func (h *serveHarness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	h.srv.Drain(ctx)
	h.cancel()
	<-h.done
	h.client.CloseIdleConnections()
}

func (h *serveHarness) do(ctx context.Context, body []byte) serveReply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return serveReply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return serveReply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return serveReply{status: resp.StatusCode, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return serveReply{status: resp.StatusCode, err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))}
	}
	var rr struct {
		Cached    bool            `json:"cached"`
		Coalesced bool            `json:"coalesced"`
		BatchSize int             `json:"batch_size"`
		Stats     json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(b, &rr); err != nil {
		return serveReply{status: resp.StatusCode, err: err}
	}
	var st struct{ CommittedInsts, Cycles uint64 }
	if err := json.Unmarshal(rr.Stats, &st); err != nil {
		return serveReply{status: resp.StatusCode, err: err}
	}
	return serveReply{status: resp.StatusCode, cached: rr.Cached, coalesced: rr.Coalesced,
		batch: rr.BatchSize, stats: sumHex(rr.Stats), insts: float64(st.CommittedInsts), cycles: float64(st.Cycles)}
}

// warmKeys is the hit class's key set: every kernel under every
// default machine at the serve budget.
func warmKeys() []*serveRequest {
	var out []*serveRequest
	for _, name := range workloads.Names() {
		for _, m := range fusion.Modes {
			r := &serveRequest{class: "hit", workload: name, mode: m, budget: serveBudget}
			r.body, _ = json.Marshal(serve.RunRequest{Workload: name, Mode: m.String(), Insts: serveBudget})
			out = append(out, r)
		}
	}
	return out
}

// phase is one schedule of requests and what happened to each.
type phase struct {
	name    string
	rate    float64 // offered requests/s, evenly spaced; 0 = all due at once
	reqs    []*serveRequest
	timings []timing
	replies []serveReply
	wall    time.Duration // first due to last response
}

func (p *phase) run(ctx context.Context, h *serveHarness, tr *spanLog) {
	due := make([]time.Duration, len(p.reqs))
	if p.rate > 0 {
		for i := range due {
			due[i] = time.Duration(float64(i) / p.rate * float64(time.Second))
		}
	}
	p.replies = make([]serveReply, len(p.reqs))
	root := tr.begin(0, "loadgen", p.name, "")
	p.timings = openLoop(ctx, due, serveConns, func(i int) {
		t := time.Now()
		p.replies[i] = h.do(ctx, p.reqs[i].body)
		tr.add(root, "serve", "POST /v1/run", p.reqs[i].class, t, time.Now())
	})
	tr.end(root)
	var last time.Time
	for _, t := range p.timings {
		if t.Done.After(last) {
			last = t.Done
		}
	}
	if len(p.timings) > 0 {
		p.wall = last.Sub(p.timings[0].Due)
	}
}

// latencies returns the phase's request latencies in ms, from when each
// was due; a failed request counts as missing any limit.
func (p *phase) latencies() []float64 { return p.times(timing.Latency) }

// roundTrips returns the requests' times on their connections, in ms.
func (p *phase) roundTrips() []float64 { return p.times(timing.RoundTrip) }

func (p *phase) times(f func(timing) time.Duration) []float64 {
	out := make([]float64, len(p.timings))
	for i, t := range p.timings {
		out[i] = ms(f(t))
		if p.replies[i].err != nil {
			out[i] = ms(time.Hour)
		}
	}
	return out
}

// meetsLimit reports whether the phase's p99 is defined and within the
// limit and its backlog did not grow: the last request due also meets
// the limit.
func (p *phase) meetsLimit() bool {
	lat := p.latencies()
	p99, ok := percentile(lat, 99)
	return ok && p99 <= ms(latencyLimit) && lat[len(lat)-1] <= ms(latencyLimit)
}

func runServeMix(ctx context.Context, o options) (*outcome, error) {
	out := newOutcome()
	var tr *spanLog
	if o.traced {
		tr = newSpanLog()
	}

	// Set-up: start heliosd and warm the hit key set, setupRuns times;
	// the median is reported and the last server is kept.
	var h *serveHarness
	var setups []float64
	var warm map[string]string
	for i := 0; i < setupRuns; i++ {
		if h != nil {
			h.stop()
		}
		t := time.Now()
		var err error
		h, warm, err = setUpServer(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs(time.Since(t)))
	}
	defer h.stop()
	out.metrics["setup_s"] = median(setups)

	gen := newMixGen(o.seed)
	draw := func(n int) []*serveRequest {
		reqs := make([]*serveRequest, n)
		for i := range reqs {
			reqs[i] = gen.next()
		}
		return reqs
	}
	sm0 := h.srv.Suite().Metrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Bursts: every request due at once, so the two connections run
	// closed-loop and a burst's wall time is the service's capacity.
	// Traced runs alternate untraced and traced bursts to measure the
	// tracing overhead.
	var phases, bursts, refBursts []*phase
	for i := 0; i < burstCount; i++ {
		if o.traced {
			ref := &phase{name: "burst (untraced)", reqs: draw(burstRequests)}
			ref.run(ctx, h, nil)
			phases, refBursts = append(phases, ref), append(refBursts, ref)
		}
		b := &phase{name: "burst", reqs: draw(burstRequests)}
		b.run(ctx, h, tr)
		phases, bursts = append(phases, b), append(bursts, b)
	}
	var burstWalls, burstRates []float64
	for _, b := range bursts {
		var insts float64
		for i, r := range b.replies {
			if !r.cached && !r.coalesced && b.reqs[i].class != "hit" {
				insts += r.insts
			}
		}
		burstWalls = append(burstWalls, secs(b.wall))
		burstRates = append(burstRates, insts/1e6/secs(b.wall))
	}

	stepTime := (secs(o.seconds) - float64(len(bursts))*median(burstWalls)) / float64(len(serveLadder))
	var steps []*phase
	for _, rate := range serveLadder {
		n := max(minStepRequests, int(rate*stepTime))
		p := &phase{name: fmt.Sprintf("ladder %.0f/s", rate), rate: rate, reqs: draw(n)}
		p.run(ctx, h, tr)
		phases = append(phases, p)
		steps = append(steps, p)
	}
	runtime.ReadMemStats(&ms1)
	sm1 := h.srv.Suite().Metrics()

	checkServe(ctx, h, phases, warm, out)

	out.metrics["wall_s"] = median(burstWalls)
	out.metrics["sim_minsts_per_s"] = median(burstRates)
	// Latency is reported from the bursts: each connection sends its next
	// request as soon as the last returns, so the host's CPUs stay busy.
	// In the lightly loaded open loop, most of a request's latency on a
	// 2-vCPU VM is the host waking an idle vCPU, which varies between
	// runs by more than any bound could absorb; the open loop's from-due
	// latencies are reported in the notes and decide knee_rps.
	var rt []float64
	for _, b := range bursts {
		rt = append(rt, b.roundTrips()...)
	}
	p99, ok := percentile(rt, 99)
	if !ok {
		return nil, fmt.Errorf("bursts have %d requests, too few for a p99", len(rt))
	}
	out.metrics["p50_ms"] = median(rt)
	out.metrics["p99_ms"] = p99
	// knee_rps is the highest rung that meets the limit plus the share of
	// the way to the next rung up at which the p99, interpolated linearly
	// between the two, reaches the limit. The bare rung moved over three
	// neighbouring rungs from run to run: near capacity, host stalls
	// decide which of them passes.
	knee := 0.0
	for i, p := range steps {
		pp99, _ := percentile(p.latencies(), 99)
		out.notef("%-16s n=%-5d p50=%7.2fms p99=%8.2fms last=%8.2fms meets=%v",
			p.name, len(p.reqs), median(p.latencies()), pp99, p.latencies()[len(p.reqs)-1], p.meetsLimit())
		if !p.meetsLimit() {
			continue
		}
		knee = p.rate
		if i+1 < len(steps) {
			next, _ := percentile(steps[i+1].latencies(), 99)
			if next > pp99 {
				knee += min(1, (ms(latencyLimit)-pp99)/(next-pp99)) * (steps[i+1].rate - p.rate)
			}
		}
	}
	out.metrics["knee_rps"] = knee
	out.notef("%d bursts of %d requests, median %.3fs; round trip p50 %.2fms p99 %.2fms over %d requests",
		len(bursts), burstRequests, median(burstWalls), median(rt), p99, len(rt))
	out.notef("peak RSS grows with the cold count: %d cold recordings in this run", sm1.TraceMisses-sm0.TraceMisses)

	if o.traced {
		tracedServe(ctx, h, phases, bursts, refBursts, sm0, sm1, ms1.TotalAlloc-ms0.TotalAlloc, tr, out)
	}
	return out, nil
}

// setUpServer starts heliosd and sends every warm key once, returning
// the digest each key's statistics must keep.
func setUpServer(ctx context.Context) (*serveHarness, map[string]string, error) {
	h, err := startServer(ctx)
	if err != nil {
		return nil, nil, err
	}
	warm := make(map[string]string)
	for _, r := range warmKeys() {
		rep := h.do(ctx, r.body)
		if rep.err != nil {
			h.stop()
			return nil, nil, fmt.Errorf("warm %s: %w", r.key(), rep.err)
		}
		warm[r.key()] = rep.stats
	}
	return h, warm, nil
}

// checkServe is serve-mix's correctness gate. Every request counts as
// an operation; one fails when it errs, when a hit's statistics differ
// from the result warmed during set-up, or when a repeated key returns
// different statistics. Afterwards every miss and cold key is asked for
// again and must return what it returned first, and a sample of them
// is recomputed in-process and must match the served statistics.
func checkServe(ctx context.Context, h *serveHarness, phases []*phase, warm map[string]string, out *outcome) {
	first := make(map[string]string)
	var again []*serveRequest
	var errs, hitBad, repeatBad int
	for _, p := range phases {
		for i, r := range p.reqs {
			rep := p.replies[i]
			out.attempted++
			if rep.err != nil {
				errs++
				continue
			}
			k := r.key()
			if r.class == "hit" && rep.stats != warm[k] {
				hitBad++
				continue
			}
			if prev, ok := first[k]; ok && prev != rep.stats {
				repeatBad++
				continue
			}
			if _, ok := first[k]; !ok && r.class != "hit" {
				again = append(again, r)
			}
			first[k] = rep.stats
		}
	}
	out.fail(errs, "requests failed or were refused")
	out.fail(hitBad, "hits differ from the results warmed during set-up")
	out.fail(repeatBad, "repeated keys returned different statistics")

	var notCached, changed int
	for _, r := range again {
		rep := h.do(ctx, r.body)
		out.attempted++
		switch {
		case rep.err != nil:
			changed++
		case rep.stats != first[r.key()]:
			changed++
		case !rep.cached:
			notCached++
		}
	}
	out.fail(changed, "repeated miss/cold keys returned different statistics")
	out.notef("%d miss/cold keys repeated, %d not served from the cache", len(again), notCached)

	// In-process recomputation of a sample of misses and colds.
	suite := core.NewSuite(0)
	var bad, n int
	stride := max(1, len(again)/8)
	for i, r := range again {
		if i%stride != 0 {
			continue
		}
		n++
		out.attempted++
		var res *core.Result
		var err error
		if r.cfg != nil {
			res, err = suite.ReplayConfig(ctx, r.workload, *r.cfg, r.budget)
		} else {
			res, err = suite.GetBudget(ctx, r.workload, r.mode, r.budget)
		}
		if err != nil || statsDigest(&res.Stats) != first[r.key()] {
			bad++
		}
	}
	out.fail(bad, "served statistics differ from an in-process recomputation")
	out.notef("%d served results recomputed in-process", n)
}

func tracedServe(ctx context.Context, h *serveHarness, phases, bursts, refBursts []*phase, sm0, sm1 core.Metrics, alloc uint64, tr *spanLog, out *outcome) {
	out.spans = tr.snapshot()
	m := out.metrics
	walls := func(ps []*phase) float64 {
		var w []float64
		for _, p := range ps {
			w = append(w, secs(p.wall))
		}
		return median(w)
	}
	traced, untraced := walls(bursts), walls(refBursts)
	m["trace.overhead_share"] = (traced - untraced) / untraced

	var replayed, cycles, recorded, requests, cached, coalesced, batched float64
	var batchSum float64
	var lags []float64
	for _, p := range phases {
		for i, rep := range p.replies {
			requests++
			lags = append(lags, ms(p.timings[i].Lag()))
			if rep.cached {
				cached++
			}
			if rep.coalesced {
				coalesced++
			}
			if !rep.cached && !rep.coalesced {
				replayed += rep.insts
				cycles += rep.cycles
				if p.reqs[i].class == "cold" {
					recorded += rep.insts
				}
			}
			if rep.batch > 0 {
				batched++
				batchSum += float64(rep.batch)
			}
		}
	}
	for _, class := range []string{"hit", "miss", "cold"} {
		lat := spansOf(out.spans, "serve", class)
		p50 := median(lat)
		p99, pct := tail(lat, 99)
		if class != "cold" {
			m["serve."+class+"_p50_ms"] = p50
		}
		m["serve."+class+"_p99_ms"] = p99
		out.notef("serve %s: n=%d p50=%.2fms p99_ms reports p%d = %.2fms (round trip, not from due)", class, len(lat), p50, pct, p99)
	}
	m["serve.hit_ratio"] = cached / requests
	m["serve.coalesced_share"] = coalesced / requests
	m["serve.batch_size_mean"] = ratio(batchSum, batched)
	c := h.srv.Counters()
	m["serve.rejected_overload"] = float64(c.RejectedOverload)
	m["serve.max_inflight"] = float64(h.srv.MaxInflight())
	lag, _ := tail(lags, 99)
	m["loadgen.lag_p99_ms"] = lag

	emu := sm1.EmuTime - sm0.EmuTime
	sim := sm1.SimTime - sm0.SimTime
	m["record.busy_s"] = secs(emu)
	m["record.count"] = float64(sm1.TraceMisses - sm0.TraceMisses)
	m["record.minsts_per_s"] = recorded / 1e6 / secs(emu)
	m["replay.busy_s"] = secs(sim)
	m["replay.count"] = float64(sm1.PipelineRuns - sm0.PipelineRuns)
	m["replay.minsts_per_s"] = replayed / 1e6 / secs(sim)
	m["replay.mcycles_per_s"] = cycles / 1e6 / secs(sim)
	m["replay.new_ms"] = probeNew(ctx, h.srv.Suite(), workloads.Names(), fusion.Modes, serveBudget)
	m["replay.alloc_mb_per_minst"] = float64(alloc) / replayed
	m["core.trace_hits"] = float64(sm1.TraceHits - sm0.TraceHits)
	m["core.trace_misses"] = float64(sm1.TraceMisses - sm0.TraceMisses)
	m["core.trace_reuse_ratio"] = ratio(m["core.trace_hits"], m["core.trace_hits"]+m["core.trace_misses"])
	out.notef("median untraced burst %.3fs, traced burst %.3fs", untraced, traced)
}
