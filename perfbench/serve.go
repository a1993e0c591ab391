package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/incr"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/service"
	"seldon/internal/spec"
	"seldon/internal/taint"
)

const (
	serveFiles = 240 // files the served store is learned from
	// A request draws from the Zipf hot head of the pool with
	// probability hotShare, else takes the next never-sent body.
	hotFiles = 64
	hotShare = 0.5
	// feedbackEvery is the fixed feedback schedule.
	feedbackEvery = time.Second
	// latencyLimit is the p99 limit, timed from each request's due time.
	latencyLimit = 25 * time.Millisecond
	// warmupShare of the budget runs at the lowest rate, unmeasured.
	warmupShare = 0.1
	// requestTimeout fails a request that has not answered in time.
	requestTimeout = 5 * time.Second
)

// serveRates are the open loop's fixed request rates (per second),
// chosen below this benchmark's capacity on a 2-CPU host; the middle
// one is where check latency is reported.
var serveRates = []float64{200, 400, 800}

// schedule splits the run's budget into the warm-up and one step per
// rate.
func (r *run) schedule() (warm, step time.Duration) {
	warm = time.Duration(float64(r.budget) * warmupShare)
	return warm, (r.budget - warm) / time.Duration(len(serveRates))
}

// poolSize is the number of distinct request bodies a run needs: the
// hot head plus the fresh draws its schedule makes, with a quarter more
// so the pool does not run dry.
func (r *run) poolSize() int {
	warm, step := r.schedule()
	checks := warm.Seconds() * serveRates[0]
	for _, rate := range serveRates {
		checks += step.Seconds() * rate
	}
	return hotFiles + int(1.25*(1-hotShare)*checks)
}

// serveSetup is one started service with its session and request pool.
type serveSetup struct {
	srv     *http.Server
	errc    <-chan error
	base    string
	sess    *incr.Session
	seed    *spec.Spec
	initial *spec.Spec
	pool    []corpus.File
}

func (st *serveSetup) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	for range st.errc { // closed once Serve has returned
	}
	return err
}

// newServeSetup learns a store from serveFiles files through an incr
// session, starts the service on a loopback port with that session
// behind /v1/feedback, and generates the request pool.
func (r *run) newServeSetup() (*serveSetup, error) {
	seed := corpus.ExperimentSeed()
	files := corpus.Generate(corpus.Config{Files: serveFiles, Seed: r.inputSeed(0)}).FileMap()
	cfg := core.Config{Workers: r.procs}
	sess := incr.NewSession(seed, cfg)
	fe := core.AnalyzeFiles(files, cfg)
	for i, name := range fe.Names {
		sess.Splice(name, fe.Graphs[i])
	}
	sess.Relearn()
	st := &serveSetup{sess: sess, seed: seed, initial: sess.LearnedSpec()}
	st.pool = corpus.Generate(corpus.Config{Files: r.poolSize(), Seed: r.inputSeed(3)}).Files

	// A metrics registry, as seldond runs with: without one the
	// responses' elapsed_ms reads 0.
	s := service.New(service.Config{
		Spec:           st.initial,
		Workers:        r.procs,
		Session:        sess,
		RequestTimeout: requestTimeout,
		Metrics:        obs.New(),
	})
	srv, errc, err := s.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.srv, st.errc, st.base = srv, errc, "http://"+srv.Addr
	return st, nil
}

// sent is one request the load generator made.
type sent struct {
	step      int // rate index, -1 for the warm-up
	feedback  bool
	body      int // pool index of a check
	due, sent time.Time
	done      time.Time
	status    int // 0 on a transport error or timeout
	resp      []byte
	elapsedMS float64 // a 200's server-side elapsed_ms
	// genLo..genHi are the store generations the check may have been
	// served under: those published before it was sent, up to those a
	// feedback in flight when it finished may have published.
	genLo, genHi int
}

// loadgen is the open-loop generator: requests are due on a fixed
// schedule, and at most procs senders each keep one request in flight,
// so a stall shows as lateness of the requests behind it.
type loadgen struct {
	st     *serveSetup
	client *http.Client
	tr     *tracer
	truth  *corpus.Truth
	// Separate streams for request bodies and verdicts, so each is the
	// same sequence for a seed however requests and feedback interleave.
	// Both are guarded by mu.
	reqRng, fbRng *rand.Rand

	mu        sync.Mutex
	zipf      *rand.Zipf
	fresh     int       // next never-sent pool index
	nextFB    time.Time // next feedback due time
	fbBusy    bool      // a feedback is in flight
	fbStarted int       // feedbacks sent
	gens      []*spec.Spec
	fbTimes   []float64 // feedback latency, seconds
	log       []*sent
}

// runStep sends requests at rate from start until end, in order of due
// time, interleaving the feedback schedule.
func (lg *loadgen) runStep(step int, rate float64, start, end time.Time, senders int) {
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lg.mu.Lock()
				due := start.Add(time.Duration(float64(next) * float64(time.Second) / rate))
				if !due.Before(end) {
					lg.mu.Unlock()
					return
				}
				req := &sent{step: step, due: due}
				if !lg.fbBusy && !lg.nextFB.After(due) {
					req.feedback, req.due = true, lg.nextFB
					lg.fbBusy = true
					lg.nextFB = lg.nextFB.Add(feedbackEvery)
				} else {
					next++
					req.body = lg.draw()
				}
				lg.log = append(lg.log, req)
				lg.mu.Unlock()
				time.Sleep(time.Until(req.due))
				lg.send(req)
			}
		}()
	}
	wg.Wait()
}

// draw picks the next check body: the Zipf hot head or a fresh body.
// Called with mu held.
func (lg *loadgen) draw() int {
	if lg.reqRng.Float64() < hotShare || lg.fresh >= len(lg.st.pool) {
		return int(lg.zipf.Uint64())
	}
	i := lg.fresh
	lg.fresh++
	return i
}

func (lg *loadgen) send(req *sent) {
	op := lg.tr.beginOp("request")
	lg.mu.Lock()
	req.genLo = len(lg.gens) - 1
	var hreq *http.Request
	var err error
	if req.feedback {
		lg.fbStarted++
		hreq, err = lg.feedbackRequest()
	} else {
		f := lg.st.pool[req.body]
		hreq, err = http.NewRequest(http.MethodPost,
			lg.st.base+"/v1/check?filename="+url.QueryEscape(f.Name), strings.NewReader(f.Source))
	}
	lg.mu.Unlock()
	if err != nil {
		panic(err) // a malformed request is a benchmark bug
	}
	name := "http.check"
	if req.feedback {
		name = "http.feedback"
	}
	id := lg.tr.child(op, name)
	req.sent = time.Now()
	resp, err := lg.client.Do(hreq)
	if err == nil {
		req.resp, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			req.status = resp.StatusCode
		}
	}
	req.done = time.Now()
	lg.tr.end(id)
	lg.tr.end(op)

	lg.mu.Lock()
	defer lg.mu.Unlock()
	req.genHi = lg.fbStarted
	if req.feedback {
		lg.fbBusy = false
		lg.fbTimes = append(lg.fbTimes, req.done.Sub(req.sent).Seconds())
		if req.status == http.StatusOK {
			// Feedback is serialized, so the session now holds exactly
			// the generation this verdict published.
			lg.gens = append(lg.gens, lg.st.sess.LearnedSpec())
		}
	}
}

// feedbackRequest draws a verdict on one learned entry of the current
// generation, judged against corpus truth. Called with mu held.
func (lg *loadgen) feedbackRequest() (*http.Request, error) {
	entries := lg.st.sess.Result().LearnedEntries(lg.st.seed)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Rep != entries[j].Rep {
			return entries[i].Rep < entries[j].Rep
		}
		return entries[i].Role < entries[j].Role
	})
	e := entries[lg.fbRng.Intn(len(entries))]
	verdict := "reject"
	if lg.truth.HasRole(e.Rep, e.Role) {
		verdict = "accept"
	}
	body, err := json.Marshal(service.FeedbackRequest{Symbol: e.Rep, Role: e.Role.String(), Verdict: verdict})
	if err != nil {
		return nil, err
	}
	return http.NewRequest(http.MethodPost, lg.st.base+"/v1/feedback", bytes.NewReader(body))
}

// stepStats summarizes one fixed rate.
type stepStats struct {
	rate                float64
	n, failed           int
	p50, p99, lateP99   float64 // ms
	achieved            float64 // successful checks per second
	backlog, meetsLimit bool
	elapsed             []float64 // server-side elapsed_ms of each 200
}

// checkServe: an open loop of /v1/check requests at each fixed rate in
// turn, with feedback verdicts on a fixed schedule. Every 200's
// findings must equal a direct taint.Analyze under a store generation
// that was serving while the request was in flight.
func checkServe(r *run) (*outcome, error) {
	o := newOutcome()
	// Every set-up but the last is stopped once timing is done.
	var started []*serveSetup
	st, setup, err := measureSetup(setupRepeats, func() (*serveSetup, error) {
		s, err := r.newServeSetup()
		if err == nil {
			started = append(started, s)
		}
		return s, err
	})
	if err == nil {
		started = started[:len(started)-1] // st keeps serving
		defer st.stop()
	}
	for _, s := range started {
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}

	transport := &http.Transport{MaxConnsPerHost: r.procs, MaxIdleConnsPerHost: r.procs}
	defer transport.CloseIdleConnections()
	reqRng := rand.New(rand.NewSource(r.inputSeed(4)))
	lg := &loadgen{
		st:     st,
		client: &http.Client{Transport: transport, Timeout: requestTimeout},
		tr:     r.tr,
		truth:  corpus.NewTruth(),
		reqRng: reqRng,
		fbRng:  rand.New(rand.NewSource(r.inputSeed(5))),
		zipf:   rand.NewZipf(reqRng, 1.1, 1, hotFiles-1),
		fresh:  hotFiles,
		gens:   []*spec.Spec{st.initial},
	}

	warm, stepLen := r.schedule()
	t := time.Now()
	lg.nextFB = t.Add(feedbackEvery / 2)
	lg.runStep(-1, serveRates[0], t, t.Add(warm), r.procs)
	steps := make([]stepStats, len(serveRates))
	for i, rate := range serveRates {
		t = time.Now()
		lg.runStep(i, rate, t, t.Add(stepLen), r.procs)
		steps[i].rate = rate
	}

	// verify decodes every 200, so it runs before the steps' summaries.
	if err := lg.verify(r, o); err != nil {
		return o, err
	}
	health, err := lg.health()
	if err != nil {
		return o, err
	}
	for i := range steps {
		lg.summarize(i, &steps[i])
		s := steps[i]
		o.note("rate %.0f/s: %d checks, p50 %.3f ms, p99 %.3f ms, generator late p99 %.3f ms, backlog %v, meets %v limit %v",
			s.rate, s.n, s.p50, s.p99, s.lateP99, s.backlog, latencyLimit, s.meetsLimit)
	}

	mid := steps[len(steps)/2]
	rps := 0.0
	for _, s := range steps {
		if s.meetsLimit {
			rps = s.achieved
		}
	}
	o.e2e["setup_s"] = setup
	o.e2e["op_ms_p50"] = mid.p50
	o.e2e["throughput_per_s"] = rps
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	recordStore(st.sess.Result(), st.seed).report(o, "check_serve final generation")

	m := o.layer
	m["error_frac"] = float64(o.failed) / float64(o.attempted)
	m["check_ms_p50"] = mid.p50
	m["check_ms_p99"] = mid.p99
	m["check_rps_at_slo"] = rps
	m["loadgen.late_ms_p99"] = mid.lateP99
	m["service.elapsed_ms_p50"] = median(mid.elapsed)
	m["feedback_ms_p50"] = median(lg.fbTimes) * 1000
	m["service.generations"] = float64(len(lg.gens) - 1)
	m["checkcache.hit_ratio"] = health.CheckCache.HitRate
	m["service.coalesced"] = float64(health.CheckCache.Coalesced)
	for _, req := range lg.log {
		switch req.status {
		case http.StatusTooManyRequests:
			m["service.rejected_429"]++
		case 0, http.StatusServiceUnavailable:
			m["service.timeouts"]++
		}
	}
	return o, nil
}

func (lg *loadgen) health() (*service.HealthResponse, error) {
	resp, err := lg.client.Get(lg.st.base + "/v1/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("decoding healthz: %w", err)
	}
	if h.CheckCache == nil {
		return nil, fmt.Errorf("healthz reports no check cache")
	}
	return &h, nil
}

// summarize computes one rate step's latency, lateness, backlog and
// achieved rate (successful checks over the time from the first send to
// the last answer). A failed check counts as missing the latency limit.
func (lg *loadgen) summarize(step int, s *stepStats) {
	var lat, late []float64
	var first, last time.Time
	for _, req := range lg.log {
		if req.step != step || req.feedback {
			continue
		}
		if s.n == 0 || req.sent.Before(first) {
			first = req.sent
		}
		if req.done.After(last) {
			last = req.done
		}
		s.n++
		l := req.done.Sub(req.due).Seconds() * 1000
		if req.status != http.StatusOK {
			s.failed++
			l = math.Inf(1)
		} else {
			s.elapsed = append(s.elapsed, req.elapsedMS)
		}
		lat = append(lat, l)
		late = append(late, req.sent.Sub(req.due).Seconds()*1000)
	}
	s.p50 = quantile(lat, 0.5)
	s.p99 = quantile(lat, 0.99)
	s.lateP99 = quantile(late, 0.99)
	if s.n > 0 {
		s.achieved = float64(s.n-s.failed) / last.Sub(first).Seconds()
	}
	// The backlog grows when the last quarter of the step's requests
	// start, at the median, later than half the latency limit.
	tail := late[len(late)*3/4:]
	s.backlog = quantile(tail, 0.5) > float64(latencyLimit.Milliseconds())/2
	s.meetsLimit = s.p99 <= float64(latencyLimit.Milliseconds()) && !s.backlog
}

// verify counts every request and checks every 200 /v1/check against
// a direct analysis of its body under each generation it may have been
// served under.
func (lg *loadgen) verify(r *run, o *outcome) error {
	graphs := map[int]*propgraph.Graph{}
	want := map[[2]int]string{}
	for _, req := range lg.log {
		o.attempted++
		if req.status != http.StatusOK {
			o.failed++
			continue
		}
		if req.feedback {
			continue
		}
		var cr service.CheckResponse
		if err := json.Unmarshal(req.resp, &cr); err != nil {
			return mismatch("check response does not decode: %v", err)
		}
		req.elapsedMS = cr.ElapsedMS
		got := findingsKey(cr.Findings)
		ok := false
		for gen := req.genLo; gen <= req.genHi && gen < len(lg.gens) && !ok; gen++ {
			k := [2]int{req.body, gen}
			w, seen := want[k]
			if !seen {
				g := graphs[req.body]
				if g == nil {
					f := lg.st.pool[req.body]
					fe := core.AnalyzeFiles(map[string]string{f.Name: f.Source}, core.Config{Workers: 1})
					g = propgraph.Union(fe.Graphs...)
					graphs[req.body] = g
				}
				var reports []taint.Report
				op := r.tr.beginOp("verify")
				r.tr.around(op, "taint.analyze", func() { reports = taint.Analyze(g, lg.gens[gen]) })
				r.tr.end(op)
				w = reportsKey(reports)
				want[k] = w
			}
			ok = got == w
		}
		if !ok {
			return mismatch("check of %s disagrees with taint.Analyze under generations %d..%d",
				lg.st.pool[req.body].Name, req.genLo, req.genHi)
		}
	}
	if r.tr != nil {
		r.tr.mu.Lock()
		var busy []float64
		for _, s := range r.tr.spans {
			if s.Name == "taint.analyze" {
				busy = append(busy, float64(s.End-s.Start)/1e6)
			}
		}
		r.tr.mu.Unlock()
		o.layer["taint.busy_ms_p50"] = median(busy)
	}
	return nil
}

func findingsKey(fs []service.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s\n", f.File, f.Source, f.Sink, f.SourcePos, f.SinkPos, f.Category)
	}
	return b.String()
}

func reportsKey(rs []taint.Report) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%s\n", r.File, r.SourceRep, r.SinkRep, r.SourcePos, r.SinkPos, r.Category)
	}
	return b.String()
}
