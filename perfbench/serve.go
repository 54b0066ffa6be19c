package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/phase"
	"repro/internal/serve"
	"repro/internal/strassen"
)

// serveShapes is the request mix in column-major engine terms (the wire
// request is its row-major transpose, see wireHeader: wire M×K×N is engine
// n×k×m). Every order is below the cutoff, so Strassen never recurses: the
// time goes to the wire codec, admission, coalescing, the pool queue and
// small-shape kernel work.
//
// Weights are in fiftieths, 2% of arrivals each; README.md gives the
// derivation. The first three shapes, 60% of arrivals, are cmd/loadgen's
// default mix (wire 96³:3, 64³:2, 128×96×64:1) in its own proportions: it
// is the only service traffic the repository states. The other 40% add the
// classes the workload must also cover: the 32 and 320 ends of the order
// range, odd, rectangular, transposed, and β ≠ 0 carrying C. The largest
// shape, 320³, has weight 1 (2%) on purpose, twice the 1% tail: the p99
// then falls near the middle of that one class's latencies, not at the
// boundary between two classes (as at 1%) nor in the upper tail of the
// class (as at 4.5%, where an earlier mix put it).
var serveShapes = []struct {
	kind    string
	m, k, n int
	ta, tb  blas.Transpose
	beta    float64
	weight  int
}{
	{"square", 96, 96, 96, N, N, 0, 15},
	{"square", 64, 64, 64, N, N, 0, 10},
	{"rect", 64, 96, 128, N, N, 0, 5},
	{"square", 32, 32, 32, N, N, 0, 4},
	{"square", 256, 256, 256, N, N, 0, 1},
	{"square", 320, 320, 320, N, N, 0, 1},
	{"rect", 96, 256, 64, N, N, 0, 2},
	{"rect", 320, 64, 200, N, N, 0, 1},
	{"odd", 129, 129, 129, N, N, 0, 3},
	{"odd", 255, 193, 97, N, N, 0, 2},
	{"square", 192, 192, 192, T, N, 0, 2},
	{"square", 160, 160, 160, N, N, 0.5, 2},
	{"rect", 200, 96, 150, N, N, 1, 2},
}

// The shapes vsKernel times in the traced run, as indices of serveShapes.
const (
	vsSquare = 5 // 320³
	vsRect   = 7 // 320×64×200
	vsOdd    = 9 // 255×193×97
)

// The rate ladder: each open-loop rate runs for its share of the window,
// the middle one is the nominal rate the latency metrics are taken at. A
// closed-loop step takes the rest of the window: closedStreams requests
// stay in flight on the connection, each sent as soon as the one before it
// is answered, so the server runs at its capacity. The nominal step runs in
// rounds parts and the closed-loop step in closedRounds parts, interleaved.
// The p50 latency and the capacity are medians over their parts, so a host
// slowdown that hits a few parts of the run does not set them. The p99 is
// taken over the quietest third of the nominal parts (quietP99), because
// host preemption stalls of 10-20 ms reach about 1% of requests and would
// otherwise set it (README.md).
var (
	ladderRates  = []float64{100, 200, 400}
	ladderShares = []float64{0.05, 0.65, 0.05}
)

const (
	nominal = 1 // index of the nominal rate in the ladder
	// variants is the number of operand sets generated per shape.
	variants = 4
	// sloLimit is the per-request latency limit of slo_frac. It is not
	// 20 ms because host steal on a 2-vCPU VM puts the p99 at 20-30 ms for
	// minutes at a time, and at 20 ms slo_frac and max_rate_rps flipped
	// from run to run.
	sloLimit = 50 * time.Millisecond
	// maxInflight bounds the generator's goroutines; an arrival past it
	// is dropped and counts as failed.
	maxInflight = 1024
	// closedMaxRate bounds the closed-loop step's schedule: it holds this
	// many requests per second of the step.
	closedMaxRate = 20000
	// rounds is the number of parts of the nominal step, closedRounds that
	// of the closed-loop step; one closed-loop part follows every
	// rounds/closedRounds nominal parts.
	rounds       = 18
	closedRounds = 6
)

// closedStreams is the number of requests the closed-loop step keeps in
// flight: enough to keep every pool worker busy while others are on the
// wire, well below the server's admission high-water mark.
func closedStreams() int { return 8 * runtime.NumCPU() }

// wireReq is one request, encoded once during preparation. Requests hold
// variants consecutive operand sets per shape of serveShapes.
type wireReq struct {
	p     *problem
	body  []byte
	words int64
}

// wireHeader maps an engine problem onto the row-major wire format:
// Cᵀ = α·op(B)ᵀ·op(A)ᵀ + β·Cᵀ, so the wire's A is the engine's B, its m is
// the engine's n, and the row-major response equals the engine's
// column-major C.
func wireHeader(p *problem) *serve.ReqHeader {
	return &serve.ReqHeader{
		M: p.n, N: p.m, K: p.k,
		TransA: fmt.Sprintf("%c", p.tb), TransB: fmt.Sprintf("%c", p.ta),
		Alpha: p.alpha, Beta: p.beta,
	}
}

// serveRequests generates the workload's requests. Every problem draws its
// operands from a source of its own seeded from the run's seed, so a
// request's operands depend only on the seed and its place in the mix.
func serveRequests(seed int64) ([]*wireReq, error) {
	var reqs []*wireReq
	for i, s := range serveShapes {
		for v := 0; v < variants; v++ {
			rng := rand.New(rand.NewSource(seed<<16 + int64(i*variants+v)))
			p := newProblem(rng, s.kind, s.ta, s.tb, s.m, s.n, s.k, 1, s.beta)
			var body bytes.Buffer
			if err := serve.EncodeRequest(&body, wireHeader(p), p.b, p.a, p.c0); err != nil {
				return nil, fmt.Errorf("encode %s: %w", p.name, err)
			}
			reqs = append(reqs, &wireReq{p: p, body: body.Bytes(), words: int64(p.m * p.n)})
		}
	}
	return reqs, nil
}

// h2client sends requests over one h2c connection.
type h2client struct {
	url string
	tr  *http.Transport
	hc  *http.Client
}

func newClient(url string) *h2client {
	tr := &http.Transport{}
	serve.EnableH2C(nil, tr)
	return &h2client{url: url, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// do sends one request and decodes the response.
func (c *h2client) do(r *wireReq, rec *spans) (*serve.RespHeader, []float64, error) {
	root := rec.begin("serve.request", 0)
	defer rec.end(root)
	req, err := http.NewRequestWithContext(bg, http.MethodPost, c.url, bytes.NewReader(r.body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", serve.ContentType)
	sp := rec.begin("http.Client.Do", root)
	resp, err := c.hc.Do(req)
	rec.end(sp)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, nil, &serve.HTTPError{Status: resp.StatusCode, Body: string(body)}
	}
	sp = rec.begin("serve.DecodeResponse", root)
	h, out, err := serve.DecodeResponse(resp.Body, serve.Limits{}, r.words)
	rec.end(sp)
	if err == nil && h.Status != "ok" {
		err = fmt.Errorf("server error: %s", h.Error)
	}
	return h, out, err
}

// serveSystem is a server in the benchmark process, set up as cmd/dgefmmd
// sets it up, listening on loopback.
type serveSystem struct {
	gemm   *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// startServe builds the server and warms it up with one request of every
// shape (plans and arenas).
func startServe(cfg *strassen.Config, reqs []*wireReq) (*serveSystem, error) {
	gemm := serve.New(&serve.Options{Config: cfg, Logger: quiet})
	hs := &http.Server{Handler: gemm.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serve.EnableH2C(hs, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gemm.Close()
		return nil, err
	}
	s := &serveSystem{
		gemm:   gemm,
		hs:     hs,
		url:    "http://" + ln.Addr().String() + "/v1/gemm",
		served: make(chan error, 1),
	}
	go func() { s.served <- hs.Serve(ln) }()
	cl := newClient(s.url)
	defer cl.tr.CloseIdleConnections()
	for i := 0; i < len(reqs); i += variants {
		if _, _, err := cl.do(reqs[i], nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", reqs[i].p.name, err)
		}
	}
	return s, nil
}

func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.served
	s.gemm.Close()
}

// arrival is one scheduled request: its offset from the step's start and
// the request it carries.
type arrival struct {
	at  time.Duration
	req int
}

// mixCycle is one fixed cycle of shape indices that holds each shape as
// often as its weight and spreads each shape's arrivals evenly over the
// cycle (smooth weighted round-robin).
func mixCycle() []int {
	total := 0
	for _, s := range serveShapes {
		total += s.weight
	}
	cycle := make([]int, total)
	credit := make([]int, len(serveShapes))
	for c := range cycle {
		best := 0
		for i, s := range serveShapes {
			credit[i] += s.weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		cycle[c] = best
	}
	return cycle
}

// schedule spaces one step's arrivals evenly at rate for dur; rate 0 is the
// closed-loop step, whose requests carry no due time and whose schedule
// holds more requests than the step can send. The shapes follow mixCycle;
// the seed and the step pick the start phase, the position in the cycle
// and each arrival's operand set. Every step thus carries the mix in its
// exact proportions and order: with Poisson arrivals the seed-dependent
// bursts moved the p99 latency by more than its bound from seed to seed,
// and with shuffled cycles the seed-dependent neighbours of the largest
// shape still moved it by 15%.
func schedule(seed int64, step int, rate float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1000 + int64(step)))
	cycle := mixCycle()
	pos := rng.Intn(len(cycle))
	next := func() int {
		r := cycle[pos%len(cycle)]*variants + rng.Intn(variants)
		pos++
		return r
	}
	if rate <= 0 {
		out := make([]arrival, int(dur.Seconds()*closedMaxRate))
		for i := range out {
			out[i].req = next()
		}
		return out
	}
	var out []arrival
	gap := time.Duration(float64(time.Second) / rate)
	for at := time.Duration(rng.Int63n(int64(gap))); at < dur; at += gap {
		out = append(out, arrival{at, next()})
	}
	return out
}

// outcome is one request's result. Durations are in nanoseconds.
type outcome struct {
	Err     string
	Late    int64 // how late the generator sent it
	Lat     int64 // from the due time to the decoded response
	RTT     int64 // from the send to the decoded response
	Done    int64 // from the step's start to the decoded response
	Server  int64 // the response's ElapsedNs
	Batched int
	C       []float64 // the result, only when it differs from the reference
}

// loadReport is one step's outcomes as the load generator returns them.
type loadReport struct {
	Outs    []outcome
	Backlog int64 // requests outstanding when the schedule ended
	Spans   []string
}

// sendStep is the load generator: it sends one step's schedule over the
// client's h2c connection and returns every request's outcome. An
// open-loop step (rate > 0) sends each request at its due time from a
// goroutine of its own; latency counts from the due time, so a stall
// delays every request due during it. The closed-loop step (rate 0) keeps
// closedStreams requests in flight until the step's time is up. The
// generator runs in the benchmark process, beside the server: as a child
// process, every request cost switches between two processes, and on the
// nested VM the benchmark was defined on that made the latency follow the
// host's load (README.md).
func sendStep(cl *h2client, reqs []*wireReq, seed int64, stepIdx int, rate float64, dur time.Duration, recordSpans bool) *loadReport {
	var rec *spans
	if recordSpans {
		rec = newSpans()
	}
	arr := schedule(seed, stepIdx, rate, dur)
	outs := make([]outcome, len(arr))
	start := time.Now().Add(time.Millisecond)
	send := func(o *outcome, r *wireReq, due time.Time) {
		t0 := time.Now()
		h, c, err := cl.do(r, rec)
		done := time.Now()
		o.Lat, o.RTT, o.Done = int64(done.Sub(due)), int64(done.Sub(t0)), int64(done.Sub(start))
		if err != nil {
			o.Err = err.Error()
			return
		}
		o.Server, o.Batched = h.ElapsedNs, h.Batched
		if hashOf(c) != r.p.want {
			o.C = c
		}
	}
	var wg sync.WaitGroup
	rep := &loadReport{}
	if rate <= 0 {
		end := start.Add(dur)
		time.Sleep(time.Until(start))
		var next atomic.Int64
		for w := 0; w < closedStreams(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					i := int(next.Add(1)) - 1
					if i >= len(arr) {
						return
					}
					send(&outs[i], reqs[arr[i].req], time.Now())
				}
			}()
		}
		wg.Wait()
		outs = outs[:min(int(next.Load()), len(arr))]
	} else {
		var inflight atomic.Int64
		for i, ar := range arr {
			due := start.Add(ar.at)
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			o := &outs[i]
			o.Late = int64(time.Since(due))
			if inflight.Load() >= maxInflight {
				o.Err = fmt.Sprintf("dropped: %d requests in flight", maxInflight)
				continue
			}
			inflight.Add(1)
			wg.Add(1)
			go func(r *wireReq) {
				defer wg.Done()
				defer inflight.Add(-1)
				send(o, r, due)
			}(reqs[ar.req])
		}
		if w := time.Until(start.Add(dur)); w > 0 {
			time.Sleep(w)
		}
		rep.Backlog = inflight.Load()
		wg.Wait()
	}
	rep.Outs = outs
	if rec != nil {
		rep.Spans = rec.summary()
	}
	return rep
}

// step is one run of the load generator, as the server saw it: open loop
// at a fixed rate, or closed loop (rate 0).
type step struct {
	rate     float64
	dur      time.Duration
	wall     time.Duration // from the step's start to its last response
	arr      []arrival
	backlog  int64
	ok, slo  int
	lat      []float64 // ms, successful requests
	flopsIn  float64   // flops of the requests answered within dur
	late     []float64 // ms
	server   []float64 // ms
	rtt      []float64 // ms
	invBatch float64
}

// runStep runs one step of the load generator against the server behind
// cl, and checks and tallies its outcomes.
func (b *bench) runStep(cl *h2client, reqs []*wireReq, stepIdx int, rate float64, dur time.Duration, recordSpans bool) (*step, error) {
	rep := sendStep(cl, reqs, b.seed, stepIdx, rate, dur, recordSpans)
	arr := schedule(b.seed, stepIdx, rate, dur)[:len(rep.Outs)]
	st := &step{rate: rate, dur: dur, arr: arr, backlog: rep.Backlog}
	var firstErr string
	for i, o := range rep.Outs {
		p := reqs[arr[i].req].p
		st.wall = max(st.wall, time.Duration(o.Done))
		b.attempted++
		st.late = append(st.late, float64(o.Late)/1e6)
		switch {
		case o.Err != "":
			b.failed++
			if firstErr == "" {
				firstErr = o.Err
			}
		case o.C != nil:
			b.failed++
			r := p.errRatio(o.C, p.depth)
			b.errMax = math.Max(b.errMax, r)
			b.wrongf("%s: response differs from in-process DGEFMM (error ratio %.3g)", p.name, r)
		default:
			b.errMax = math.Max(b.errMax, p.wantErr)
			st.ok++
			if time.Duration(o.Lat) <= sloLimit {
				st.slo++
			}
			st.lat = append(st.lat, float64(o.Lat)/1e6)
			if time.Duration(o.Done) <= dur {
				st.flopsIn += p.flops()
			}
			st.server = append(st.server, float64(o.Server)/1e6)
			st.rtt = append(st.rtt, float64(o.RTT)/1e6)
			st.invBatch += 1 / float64(max(o.Batched, 1))
		}
	}
	if firstErr != "" {
		b.notef("rate %4.0f/s: %d requests failed, the first with: %s", rate, len(arr)-st.ok, firstErr)
	}
	if rate <= 0 {
		b.notef("closed loop, %d in flight, for %v: %d sent, %d ok, %.1f requests/s, %.3f GFLOP/s answered within the step, p50 %.3f ms, p99 %.3f ms",
			closedStreams(), dur, len(arr), st.ok, float64(st.ok)/st.wall.Seconds(), st.gflops(),
			median(st.lat), quantileOf(st.lat, 0.99))
	} else {
		b.notef("rate %4.0f/s for %v: %d sent, %d ok, slo %.4f, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, backlog at end %d",
			rate, dur, len(arr), st.ok, st.sloFrac(), median(st.lat), quantileOf(st.lat, 0.99), quantileOf(st.late, 0.99), st.backlog)
	}
	b.report = append(b.report, rep.Spans...)
	return st, nil
}

// gflops is the closed-loop step's throughput: the flops of the requests
// answered within the step's time, per second.
func (st *step) gflops() float64 { return st.flopsIn / st.dur.Seconds() / 1e9 }

// merge joins the parts of a step run in rounds into one step, for the
// step's SLO share and backlog.
func merge(parts []*step) *step {
	m := &step{rate: parts[0].rate}
	for _, p := range parts {
		m.dur += p.dur
		m.arr = append(m.arr, p.arr...)
		m.backlog = max(m.backlog, p.backlog)
		m.ok += p.ok
		m.slo += p.slo
		m.lat = append(m.lat, p.lat...)
	}
	return m
}

// quietP99 is the p99 latency over the quietest third of the parts of a
// step: the parts with the lowest p99, their samples pooled, so that at
// least ten samples lie beyond it. The host preempts a vCPU for 10-20 ms a
// few times every 5 s, and such a stall delays about 1% of requests, so
// the p99 of the whole step sits on the edge of the stalled requests and
// follows the host's stall rate. The quietest parts show the program's own
// tail: every part of about a second holds every shape of the mix several
// times (the largest 4 times), so a change that slows any class or adds
// delay to more than about 1% of requests moves every part, the quietest
// too.
func quietP99(parts []*step) float64 {
	byP99 := append([]*step(nil), parts...)
	sort.Slice(byP99, func(i, j int) bool {
		return quantileOf(byP99[i].lat, 0.99) < quantileOf(byP99[j].lat, 0.99)
	})
	var pool []float64
	for _, p := range byP99[:max(1, len(parts)/3)] {
		pool = append(pool, p.lat...)
	}
	return quantileOf(pool, 0.99)
}

func (st *step) sloFrac() float64 {
	if len(st.arr) == 0 {
		return 0
	}
	return float64(st.slo) / float64(len(st.arr))
}

// sustained reports whether the step met the SLO without a growing
// backlog: at least 95% of requests answered OK within the limit, and at
// most max(10, 5% of the rate) requests outstanding when the schedule
// ended.
func (st *step) sustained() bool {
	return st.sloFrac() >= 0.95 && float64(st.backlog) <= math.Max(10, 0.05*st.rate)
}

// runServe is the serve-small workload: open-loop arrivals over one h2c
// connection at a ladder of fixed rates, and a closed-loop step.
func runServe(b *bench) error {
	seq := strassen.DefaultConfig(nil)
	reqs, err := serveRequests(b.seed)
	if err != nil {
		return err
	}
	probs := make([]*problem, len(reqs))
	for i, r := range reqs {
		r.p.prepare(b, b.rng, seq)
		probs[i] = r.p
	}

	if !b.traced {
		sys, err := setupMedian(b, 5, func() (*serveSystem, error) { return startServe(nil, reqs) }, (*serveSystem).close)
		if err != nil {
			return err
		}
		defer sys.close()
		cl := newClient(sys.url)
		defer cl.tr.CloseIdleConnections()
		closedDur := b.window
		for _, x := range ladderShares {
			closedDur -= time.Duration(x * float64(b.window))
		}
		closedDur /= closedRounds
		stepIdx := 0
		run := func(rate float64, dur time.Duration) (*step, error) {
			stepIdx++
			return b.runStep(cl, reqs, stepIdx-1, rate, dur, false)
		}
		var maxRate float64
		var p50, capacity []float64
		var parts []*step
		var nom *step
		for i, rate := range ladderRates {
			dur := time.Duration(ladderShares[i] * float64(b.window))
			if i != nominal {
				st, err := run(rate, dur)
				if err != nil {
					return err
				}
				if st.sustained() {
					maxRate = math.Max(maxRate, rate)
				}
				continue
			}
			for r := 0; r < rounds; r++ {
				st, err := run(rate, dur/rounds)
				if err != nil {
					return err
				}
				parts = append(parts, st)
				p50 = append(p50, median(st.lat))
				if (r+1)%(rounds/closedRounds) != 0 {
					continue
				}
				c, err := run(0, closedDur)
				if err != nil {
					return err
				}
				capacity = append(capacity, c.gflops())
			}
			if nom = merge(parts); nom.sustained() {
				maxRate = math.Max(maxRate, rate)
			}
		}
		b.set("lat_p50_ms", median(p50))
		quiet := quietP99(parts)
		b.set("lat_p99_ms", quiet)
		b.notef("latency: %d samples in %d parts, median of the part p50s %.3f ms, p99 over the quietest third of the parts %.3f ms; over all samples p50 %.3f ms, p99 %.3f ms",
			len(nom.lat), rounds, median(p50), quiet, median(nom.lat), quantileOf(nom.lat, 0.99))
		b.set("slo_frac", nom.sloFrac())
		b.set("gflops", median(capacity))
		b.notef("capacity: median of %d closed-loop parts %.3f GFLOP/s (parts %.3f)", closedRounds, median(capacity), capacity)
		b.set("max_rate_rps", maxRate)
		snap := sys.gemm.Collector().Snapshot()
		peak := snap.Memory.Peak
		for _, k := range snap.Packed {
			peak += k.Arena.Peak
		}
		b.set("workspace_peak_mw", float64(peak)/1e6)
		b.notef("serve-small: max sustained rate %.0f/s; pool workspace peaks (Strassen %d + packing %d words)",
			maxRate, snap.Memory.Peak, peak-snap.Memory.Peak)
		return nil
	}

	// Both passes run the same schedule at the nominal rate.
	half := b.window / 2
	rate := ladderRates[nominal]
	ctU := strassen.NewCountTracer()
	cfgU := strassen.DefaultConfig(nil)
	cfgU.Tracer = ctU
	settle()
	sysU, err := startServe(cfgU, reqs)
	if err != nil {
		return err
	}
	clU := newClient(sysU.url)
	settle()
	stU, err := b.runStep(clU, reqs, nominal, rate, half, false)
	clU.tr.CloseIdleConnections()
	sysU.close()
	if err != nil {
		return err
	}

	ctT := strassen.NewCountTracer()
	cfgT := strassen.DefaultConfig(nil)
	cfgT.Tracer = ctT
	sys, err := startServe(cfgT, reqs)
	if err != nil {
		return err
	}
	defer sys.close()
	cl := newClient(sys.url)
	defer cl.tr.CloseIdleConnections()
	settle()
	stop := profile()
	t0 := time.Now()
	st, err := b.runStep(cl, reqs, nominal, rate, half, true)
	wall := time.Since(t0)
	phases := stop()
	if err != nil {
		return err
	}

	if stU.ok == len(stU.arr) && st.ok == len(st.arr) {
		b.guardActions(ctU, ctT, len(st.arr)+len(reqs)/variants)
	} else {
		b.notef("action guard skipped: %d and %d of %d requests succeeded in the two passes", stU.ok, st.ok, len(st.arr))
	}
	b.set("trace.overhead", median(st.lat)/median(stU.lat))
	b.notef("trace overhead: traced p50 %.3f ms vs untraced %.3f ms", median(st.lat), median(stU.lat))
	b.set("serve.server_ms_p50", median(st.server))
	transport := make([]float64, len(st.rtt))
	for i := range st.rtt {
		transport[i] = st.rtt[i] - st.server[i]
	}
	b.set("serve.transport_ms_p50", median(transport))
	if st.invBatch > 0 {
		b.set("serve.coalesce_ratio", float64(st.ok)/st.invBatch)
	}
	b.set("loadgen.late_ms_p99", quantileOf(st.late, 0.99))
	snap := sys.gemm.Collector().Snapshot()
	if req := snap.Metrics.Counters["serve.requests"]; req > 0 {
		b.set("serve.rejected_frac.quota", float64(snap.Metrics.Counters["serve.rejected.quota"])/float64(req))
		b.set("serve.rejected_frac.backpressure", float64(snap.Metrics.Counters["serve.rejected.backpressure"])/float64(req))
	}
	ps := sys.gemm.Pool().Stats()
	b.set("batch.plan_buckets", float64(ps.Buckets))
	fresh, reused := snap.Memory.Allocs, snap.Memory.Reused
	for _, k := range snap.Packed {
		fresh += k.Arena.Allocs
		reused += k.Arena.Reused
	}
	if fresh+reused > 0 {
		b.set("batch.arena_reuse_frac", float64(reused)/float64(fresh+reused))
	}

	coreNS := float64(ps.Workers) * float64(wall.Nanoseconds())
	work := b.phaseMetrics(phases, coreNS)
	b.serveAddUp(st, phases, work)
	b.planMetric(seq, probs)
	b.codec(reqs)
	b.vsKernel(seq, probs[vsSquare*variants], probs[vsOdd*variants], probs[vsRect*variants])
	return nil
}

// serveAddUp splits the mean round trip into transport and server time,
// and server time into queue wait, compute phases and the rest.
func (b *bench) serveAddUp(st *step, phases []phase.Stat, workNS float64) {
	if st.ok == 0 {
		return
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	rtt, server := mean(st.rtt), mean(st.server)
	var queue float64
	if q := phases[phase.BatchQueueWait]; q.Count > 0 {
		queue = float64(q.NS) / float64(q.Count) / 1e6
	}
	compute := workNS / float64(st.ok) / 1e6
	rest := server - queue - compute
	b.notef("layers add up (mean per request): round trip %.3f ms = transport %.3f + server %.3f; server = queue wait %.3f + compute phases %.3f + rest %.3f; unattributed %.1f%% of the round trip",
		rtt, rtt-server, server, queue, compute, rest, 100*rest/rtt)
	b.set("layers.unattributed_frac", rest/rtt)
}

// codec times the wire codec directly on the workload's payloads: request
// encode and decode, response encode and decode, per MB moved.
func (b *bench) codec(reqs []*wireReq) {
	var moved int64
	var took time.Duration
	for rep := 0; rep < 5; rep++ {
		for _, r := range reqs {
			c := make([]float64, r.words)
			var in, out bytes.Buffer
			t0 := time.Now()
			err := serve.EncodeRequest(&in, wireHeader(r.p), r.p.b, r.p.a, r.p.c0)
			if err == nil {
				_, err = serve.DecodeRequest(bytes.NewReader(in.Bytes()), serve.Limits{})
			}
			if err == nil {
				err = serve.EncodeResponse(&out, &serve.RespHeader{Status: "ok", Batched: 1}, c)
			}
			if err == nil {
				_, _, err = serve.DecodeResponse(bytes.NewReader(out.Bytes()), serve.Limits{}, r.words)
			}
			took += time.Since(t0)
			if err != nil {
				b.wrongf("codec %s: %v", r.p.name, err)
				return
			}
			moved += int64(2*in.Len() + 2*out.Len())
		}
	}
	b.set("serve.codec_us_per_mb", float64(took.Microseconds())/(float64(moved)/1e6))
}
