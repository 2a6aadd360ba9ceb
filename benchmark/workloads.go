package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	lhmm "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// phase is the accounting of one part of a workload run.
type phase struct {
	Name      string
	Attempted int
	OK        int
	Failed    int
	Refused   int // HTTP 429
	WallS     float64
	Note      string
}

// outcome is everything one workload run measured.
type outcome struct {
	Def    workloadDef
	Phases []phase

	// Throughput phase: points completed, its wall-clock and the
	// process CPU time it used (load generator included).
	Points int
	WallS  float64
	CPUS   float64

	// Latency samples of the workload's unit operation, milliseconds,
	// and how many attempts produced none (failed or refused).
	Lat     []float64
	LatLost int

	// ClosedLat holds serve_hot's closed-loop request latencies,
	// SendLag its open-loop generator lateness and PushLat stream_hot's
	// per-point request latencies, all milliseconds.
	ClosedLat []float64
	SendLag   []float64
	PushLat   []float64

	// Router cache counter movement over the timed phases; zero unless
	// the obs registry is enabled (servers enable it, traced runs too).
	CacheHits, CacheMisses, CacheEvictions int64

	// Stages sums Result.Trace.Stages over the timed in-process
	// matches of a traced run.
	Stages obs.StageTimings

	// LiveHeapMB is the reachable heap once the workload has ended.
	LiveHeapMB float64

	Check *checker
}

func (o *outcome) attempted() (attempted, failed int) {
	for _, p := range o.Phases {
		attempted += p.Attempted
		failed += p.Failed + p.Refused
	}
	return attempted, failed
}

// sloShare is the share of unit operations answered within the
// workload's latency limit; an operation that failed or was refused
// misses it.
func (o *outcome) sloShare() float64 {
	within := 0
	for _, l := range o.Lat {
		if l <= o.Def.SLOMs {
			within++
		}
	}
	return float64(within) / float64(len(o.Lat)+o.LatLost)
}

// The router's cache counters, read through their interned handles.
var (
	routerHits      = obs.Default.Counter("router.cache.hits")
	routerMisses    = obs.Default.Counter("router.cache.misses")
	routerEvictions = obs.Default.Counter("router.cache.evictions")
)

type routerCounters struct{ hits, misses, evictions int64 }

func readRouterCounters() routerCounters {
	return routerCounters{routerHits.Value(), routerMisses.Value(), routerEvictions.Value()}
}

// timed brackets a timed phase: wall-clock, process CPU and router
// cache counters.
type timed struct {
	t0  time.Time
	cpu time.Duration
	rc  routerCounters
}

func startTimed() timed {
	return timed{t0: time.Now(), cpu: processCPU(), rc: readRouterCounters()}
}

func (t timed) stop(o *outcome) (wallS, cpuS float64) {
	wallS = time.Since(t.t0).Seconds()
	cpu := processCPU()
	rc := readRouterCounters()
	o.CacheHits += rc.hits - t.rc.hits
	o.CacheMisses += rc.misses - t.rc.misses
	o.CacheEvictions += rc.evictions - t.rc.evictions
	return wallS, (cpu - t.cpu).Seconds()
}

// run executes one workload on a model no other workload has used.
func runWorkload(def workloadDef, fx *fixture, m *lhmm.Model, opt options, sz sizes, rec *recorder) (*outcome, error) {
	o := &outcome{Def: def, Check: newChecker(fx.ds.Net)}
	root := rec.start(def.Name, nil, "")
	defer root.end()
	var err error
	switch def.Name {
	case "batch_distinct":
		// In data order whatever the seed: which trips meet a cold router
		// depends on the order, and reshuffling moved the per-trip median
		// by a quarter.
		runBatch(o, m, [][]*lhmm.Trip{fx.dist}, false, rec, root)
	case "batch_hot":
		passes := make([][]*lhmm.Trip, sz.HotPasses)
		for i := range passes {
			passes[i] = shuffled(fx.hot, opt.Seed+int64(i))
		}
		runBatch(o, m, passes, true, rec, root)
	case "serve_hot":
		err = runServe(o, fx, m, opt, sz, rec, root)
	case "stream_hot":
		err = runStream(o, fx, m, opt, sz, rec, root)
	default:
		err = fmt.Errorf("unknown workload %q", def.Name)
	}
	return o, err
}

// runBatch matches the passes sequentially in process. With warm, the
// first pass is run once untimed beforehand so the router holds every
// tree the timed passes need; without, timing starts on a cold router.
func runBatch(o *outcome, m *lhmm.Model, passes [][]*lhmm.Trip, warm bool, rec *recorder, parent *span) {
	match := func(ph *phase, sp *span, trip *lhmm.Trip, pass int) {
		warming := pass < 0
		ph.Attempted++
		msp := rec.start("core.Match", sp, fmt.Sprintf("trip%d.%d", trip.ID, pass))
		t0 := time.Now()
		res, err := m.Match(trip.Cell)
		lat := time.Since(t0)
		msp.end()
		if err != nil {
			ph.Failed++
			o.Check.fail("trip %d: match: %v", trip.ID, err)
			if !warming {
				o.LatLost++
			}
			return
		}
		ph.OK++
		o.Check.result(trip, len(res.Matched), res.Path)
		if warming {
			return
		}
		o.Points += len(trip.Cell)
		o.Lat = append(o.Lat, ms(lat))
		if res.Trace != nil {
			addStages(&o.Stages, res.Trace.Stages)
		}
	}
	if warm {
		ph := phase{Name: "warm"}
		sp := rec.start("warm", parent, "")
		for _, trip := range passes[0] {
			match(&ph, sp, trip, -1)
		}
		ph.WallS = sp.end()
		o.Phases = append(o.Phases, ph)
	}
	ph := phase{Name: "timed"}
	sp := rec.start("timed", parent, "")
	tm := startTimed()
	for i, pass := range passes {
		for _, trip := range pass {
			match(&ph, sp, trip, i)
		}
	}
	o.WallS, o.CPUS = tm.stop(o)
	sp.end()
	ph.WallS = o.WallS
	o.Phases = append(o.Phases, ph)
}

func addStages(sum *obs.StageTimings, s obs.StageTimings) {
	sum.CandidatesS += s.CandidatesS
	sum.ViterbiS += s.ViterbiS
	sum.TransitionS += s.TransitionS
	sum.ShortcutsS += s.ShortcutsS
	sum.BacktrackS += s.BacktrackS
	sum.ExpandS += s.ExpandS
	sum.TotalS += s.TotalS
}

// server is an lhmm-serve instance behind httptest with the binary's
// flag defaults (-workers 4 -queue 64 -lag 2), plus a client limited to
// the benchmark's connection count.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer(m *lhmm.Model, conns int) (*server, error) {
	reg := serve.NewRegistry(func() (*lhmm.Model, error) { return m, nil })
	if err := reg.Reload(); err != nil {
		return nil, err
	}
	srv, err := serve.New(reg, serve.Config{Workers: 4, Queue: 64, DefaultLag: 2})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &server{srv: srv, ts: httptest.NewServer(srv.Handler()), client: &http.Client{Transport: tr}}, nil
}

func (s *server) stop() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // every client has returned; nothing is in flight
	s.ts.Close()
	s.srv.Close()
}

// post sends one prepared body and returns the status and response
// body.
func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, out, err
}

// count files one response under OK, refused or failed.
func (p *phase) count(code int, err error) bool {
	p.Attempted++
	switch {
	case err == nil && code == http.StatusOK:
		p.OK++
		return true
	case err == nil && code == http.StatusTooManyRequests:
		p.Refused++
	default:
		p.Failed++
	}
	return false
}

func (p *phase) merge(q phase) {
	p.Attempted += q.Attempted
	p.OK += q.OK
	p.Failed += q.Failed
	p.Refused += q.Refused
}

// hotRequest is one hot trip prepared for POST /v1/match: the request
// body and the body the server must answer with, which is the JSON
// encoding of the in-process result for the same trajectory.
type hotRequest struct {
	trip *lhmm.Trip
	body []byte
	want []byte
}

// checkMatchBody holds a /v1/match response to the parity contract and
// runs the path checks on it.
func (o *outcome) checkMatchBody(hr *hotRequest, got []byte) {
	if !bytes.Equal(bytes.TrimRight(got, "\n"), hr.want) {
		o.Check.fail("trip %d: /v1/match body differs from the in-process result's encoding", hr.trip.ID)
		return
	}
	var mr serve.MatchResponse
	if err := json.Unmarshal(got, &mr); err != nil {
		o.Check.fail("trip %d: /v1/match body: %v", hr.trip.ID, err)
		return
	}
	o.Check.result(hr.trip, len(mr.Matched), segmentIDs(mr.Path))
}

func segmentIDs(path []int) []lhmm.SegmentID {
	out := make([]lhmm.SegmentID, len(path))
	for i, s := range path {
		out[i] = lhmm.SegmentID(s)
	}
	return out
}

// runServe drives POST /v1/match over the hot set: a warm pass, a
// closed loop (each client sends its next request when the previous
// one returns) that gives throughput, then an open loop at a fixed
// arrival rate whose latencies are taken from each request's due time.
func runServe(o *outcome, fx *fixture, m *lhmm.Model, opt options, sz sizes, rec *recorder, parent *span) error {
	s, err := startServer(m, sz.Clients)
	if err != nil {
		return err
	}
	defer s.stop()

	// Warm pass: the in-process match fills the router and fixes the
	// expected body; one request per trip warms the HTTP path.
	warm := phase{Name: "warm"}
	wsp := rec.start("warm", parent, "")
	reqs := make([]*hotRequest, len(fx.hot))
	for i, trip := range fx.hot {
		res, err := m.Match(trip.Cell)
		if err != nil {
			return fmt.Errorf("trip %d: in-process match: %w", trip.ID, err)
		}
		hr := &hotRequest{trip: trip}
		if hr.body, err = json.Marshal(serve.PointsRequest(trip.Cell)); err != nil {
			return err
		}
		if hr.want, err = json.Marshal(serve.ResultJSON(res)); err != nil {
			return err
		}
		reqs[i] = hr
		code, got, err := s.post("/v1/match", hr.body)
		if warm.count(code, err) {
			o.checkMatchBody(hr, got)
		} else {
			o.Check.fail("trip %d: warm request: HTTP %d %v", trip.ID, code, err)
		}
	}
	warm.WallS = wsp.end()
	o.Phases = append(o.Phases, warm)

	send := func(ph *phase, sp *span, hr *hotRequest, id string) (time.Duration, bool) {
		rsp := rec.start("POST /v1/match", sp, id)
		t0 := time.Now()
		code, got, err := s.post("/v1/match", hr.body)
		lat := time.Since(t0)
		rsp.end()
		if !ph.count(code, err) {
			return lat, false
		}
		o.checkMatchBody(hr, got)
		return lat, true
	}

	// Closed loop.
	closed := phase{Name: "closed"}
	csp := rec.start("closed", parent, "")
	tm := startTimed()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < sz.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			order := shuffled(reqs, opt.Seed+int64(c))
			var ph phase
			var lat []float64
			points := 0
			for i := 0; i < sz.ClosedPerClient; i++ {
				hr := order[i%len(order)]
				if d, ok := send(&ph, csp, hr, fmt.Sprintf("closed%d.%d", c, i)); ok {
					points += len(hr.trip.Cell)
					lat = append(lat, ms(d))
				}
			}
			mu.Lock()
			closed.merge(ph)
			o.Points += points
			o.ClosedLat = append(o.ClosedLat, lat...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	o.WallS, o.CPUS = tm.stop(o)
	csp.end()
	closed.WallS = o.WallS
	closed.Note = fmt.Sprintf("%d clients, %.2f requests/s", sz.Clients, float64(closed.OK)/o.WallS)
	o.Phases = append(o.Phases, closed)
	if sz.OpenRequests == 0 {
		return nil
	}

	// Open loop: arrivals paced at a fixed rate, each gap drawn from
	// the seed uniformly within half a mean gap either side, and the
	// trips cycling through the hot set in seeded order. The gaps are
	// not exponential: over the few seconds a run lasts, where a Poisson
	// stream's bursts happen to fall decides its tail latency (p90 ran
	// from 81 to 392 ms over ten seeds), and the benchmark has to
	// resolve changes far smaller than that. The senders are as many as
	// the connections, so a request due while all are busy is sent late
	// and its wait counts, because its latency runs from the due time.
	open := phase{Name: "open"}
	osp := rec.start("open", parent, "")
	rng := rand.New(rand.NewSource(opt.Seed))
	due := make([]time.Duration, sz.OpenRequests)
	pick := make([]int, sz.OpenRequests)
	var at float64
	for i := range due {
		at += (0.5 + rng.Float64()) / sz.OpenRate
		due[i] = time.Duration(at * float64(time.Second))
	}
	for i := 0; i < len(pick); i += len(reqs) {
		copy(pick[i:], rng.Perm(len(reqs))) // every pass over the hot set in its own order
	}
	tm = startTimed()
	var next atomic.Int64
	for c := 0; c < sz.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ph phase
			var lat, lag []float64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					break
				}
				dueAt := tm.t0.Add(due[i])
				time.Sleep(time.Until(dueAt))
				lag = append(lag, ms(time.Since(dueAt)))
				if _, ok := send(&ph, osp, reqs[pick[i]], "open"+strconv.Itoa(i)); ok {
					lat = append(lat, ms(time.Since(dueAt)))
				}
			}
			mu.Lock()
			open.merge(ph)
			o.Lat = append(o.Lat, lat...)
			o.SendLag = append(o.SendLag, lag...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	open.WallS, _ = tm.stop(o)
	osp.end()
	o.LatLost = open.Attempted - open.OK
	open.Note = fmt.Sprintf("%.0f arrivals/s offered, generator lateness p90 %.2f ms", sz.OpenRate, quantile(o.SendLag, 0.9))
	o.Phases = append(o.Phases, open)
	return nil
}

// runStream drives the session endpoints: each device opens a session,
// posts a hot trip one point at a time, finishes it, and starts the
// next; a closed loop per device.
func runStream(o *outcome, fx *fixture, m *lhmm.Model, opt options, sz sizes, rec *recorder, parent *span) error {
	s, err := startServer(m, sz.Clients)
	if err != nil {
		return err
	}
	defer s.stop()

	bodies := make(map[int][][]byte, len(fx.hot)) // trip ID -> one push body per point
	for _, trip := range fx.hot {
		for _, p := range serve.PointsRequest(trip.Cell).Points {
			b, err := json.Marshal(serve.PushRequest{Points: []serve.Point{p}})
			if err != nil {
				return err
			}
			bodies[trip.ID] = append(bodies[trip.ID], b)
		}
	}

	// session replays one trip: create, one request per point, finish.
	// It returns the push latencies and whether every request succeeded.
	session := func(ph *phase, sp *span, trip *lhmm.Trip, id string) (push []float64, ok bool) {
		ssp := rec.start("session", sp, id)
		defer ssp.end()
		code, got, err := s.post("/v1/sessions", nil)
		if !ph.count(code, err) {
			o.Check.fail("trip %d: create session: HTTP %d %v", trip.ID, code, err)
			return nil, false
		}
		var sr serve.SessionResponse
		if err := json.Unmarshal(got, &sr); err != nil {
			o.Check.fail("trip %d: create session: %v", trip.ID, err)
			return nil, false
		}
		base := "/v1/sessions/" + sr.ID
		ok = true
		for _, b := range bodies[trip.ID] {
			psp := rec.start("POST points", ssp, id)
			t0 := time.Now()
			code, _, err := s.post(base+"/points", b)
			d := time.Since(t0)
			psp.end()
			if ph.count(code, err) {
				push = append(push, ms(d))
			} else {
				ok = false
			}
		}
		code, got, err = s.post(base+"/finish", nil)
		if !ph.count(code, err) {
			o.Check.fail("trip %d: finish session: HTTP %d %v", trip.ID, code, err)
			return push, false
		}
		var mr serve.MatchResponse
		if err := json.Unmarshal(got, &mr); err != nil {
			o.Check.fail("trip %d: finish body: %v", trip.ID, err)
			return push, false
		}
		// Finalized count equals points pushed, and the path checks.
		o.Check.result(trip, len(mr.Matched), segmentIDs(mr.Path))
		return push, ok
	}

	warm := phase{Name: "warm"}
	wsp := rec.start("warm", parent, "")
	for _, trip := range fx.hot {
		session(&warm, wsp, trip, fmt.Sprintf("warm.%d", trip.ID))
	}
	warm.WallS = wsp.end()
	o.Phases = append(o.Phases, warm)

	run := phase{Name: "timed"}
	tsp := rec.start("timed", parent, "")
	tm := startTimed()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for d := 0; d < sz.Clients; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			order := shuffled(fx.hot, opt.Seed+int64(d))
			var ph phase
			var lat, push []float64
			lost := 0
			for i := 0; i < sz.SessionsPerDevice; i++ {
				t0 := time.Now()
				p, ok := session(&ph, tsp, order[i%len(order)], fmt.Sprintf("dev%d.%d", d, i))
				if ok {
					lat = append(lat, ms(time.Since(t0)))
				} else {
					lost++
				}
				push = append(push, p...)
			}
			mu.Lock()
			run.merge(ph)
			o.Lat = append(o.Lat, lat...)
			o.PushLat = append(o.PushLat, push...)
			o.LatLost += lost
			mu.Unlock()
		}(d)
	}
	wg.Wait()
	o.WallS, o.CPUS = tm.stop(o)
	tsp.end()
	o.Points = len(o.PushLat)
	run.WallS = o.WallS
	run.Note = fmt.Sprintf("%d devices, %d sessions each; %d point requests p50 %.2f ms, p95 %.2f ms, p99 %.2f ms",
		sz.Clients, sz.SessionsPerDevice, len(o.PushLat), quantile(o.PushLat, 0.5), quantile(o.PushLat, 0.95), quantile(o.PushLat, 0.99))
	o.Phases = append(o.Phases, run)
	return nil
}
