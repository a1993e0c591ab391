package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/incr"
	"seldon/internal/obs"
	"seldon/internal/spec"
)

const (
	sessionFiles = 2400
	// sessionEdits is the edit batch: about 1% of the session's files
	// switch between their two versions each op.
	sessionEdits = 24
	// pinEvery adds one feedback pin on every pinEvery-th op.
	pinEvery = 4
)

// sessionState is relearn_session's set-up and the corpus as the ops
// have edited it so far.
type sessionState struct {
	dir   string // session directory (state.bin, flowcache.bin)
	cache *fpcache.Cache
	cur   map[string]string // the corpus as the session holds it
	// versions holds both versions of every name the two generated
	// corpora share with different content; pool holds the content a
	// name gets when it is added back; absent lists the names of either
	// corpus that are not in cur.
	versions map[string][2]string
	shared   []string
	pool     map[string]string
	absent   []string
	pins     map[incr.PinKey]float64
	learned  []spec.Entry // learned entries of the last relearn
}

// newSessionState generates the two corpus versions and builds a cold
// session over version A in a fresh directory, with an fpcache holding
// every file version A analyzed.
func (r *run) newSessionState(k int, seed *spec.Spec) (*sessionState, error) {
	a := corpus.Generate(corpus.Config{Files: sessionFiles, Seed: r.inputSeed(0)}).FileMap()
	b := corpus.Generate(corpus.Config{Files: sessionFiles, Seed: r.inputSeed(1)}).FileMap()
	st := &sessionState{
		dir:      filepath.Join(r.dir, fmt.Sprintf("session-%d", k)),
		cur:      map[string]string{},
		versions: map[string][2]string{},
		pool:     map[string]string{},
		pins:     map[incr.PinKey]float64{},
	}
	for name, src := range a {
		st.cur[name] = src
		st.pool[name] = src
		if srcB, ok := b[name]; ok && srcB != src {
			st.versions[name] = [2]string{src, srcB}
			st.shared = append(st.shared, name)
		}
	}
	for name, src := range b {
		if _, ok := a[name]; !ok {
			st.pool[name] = src
			st.absent = append(st.absent, name)
		}
	}
	sort.Strings(st.shared)
	sort.Strings(st.absent)

	cache, err := fpcache.Open(filepath.Join(r.dir, fmt.Sprintf("fpcache-%d", k)))
	if err != nil {
		return nil, err
	}
	st.cache = cache
	cfg := core.Config{Workers: r.procs, Cache: cache}
	sess := incr.NewSession(seed, cfg)
	fe := core.AnalyzeFiles(a, cfg)
	for i, name := range fe.Names {
		sess.Splice(name, fe.Graphs[i])
	}
	res, _ := sess.Relearn()
	st.learned = res.LearnedEntries(seed)
	if err := sess.SaveDir(st.dir); err != nil {
		return nil, err
	}
	return st, nil
}

// edit is one op's seeded change to the corpus.
type edit struct {
	splice  map[string]string
	retract string
	pin     *incr.PinKey
	pinVal  float64
}

// nextEdit draws an edit batch and applies it to st.cur: sessionEdits
// present shared files switch version, one other present file is
// retracted and one absent file is added. On every pinEvery-th op it
// also draws a feedback verdict on a learned entry, judged against
// corpus truth.
func (st *sessionState) nextEdit(i int, rng *rand.Rand, truth *corpus.Truth) edit {
	e := edit{splice: map[string]string{}}
	for _, j := range rng.Perm(len(st.shared)) {
		if len(e.splice) == sessionEdits {
			break
		}
		name := st.shared[j]
		src, ok := st.cur[name]
		if !ok {
			continue
		}
		v := st.versions[name]
		next := v[1]
		if src == v[1] {
			next = v[0]
		}
		e.splice[name] = next
		st.cur[name] = next
	}

	names := sortedKeys(st.cur)
	for e.retract == "" {
		name := names[rng.Intn(len(names))]
		if _, touched := e.splice[name]; !touched {
			e.retract = name
		}
	}
	delete(st.cur, e.retract)
	k := rng.Intn(len(st.absent))
	add := st.absent[k]
	st.absent[k] = e.retract
	e.splice[add] = st.pool[add]
	st.cur[add] = st.pool[add]

	if i%pinEvery == pinEvery-1 && len(st.learned) > 0 {
		ent := st.learned[rng.Intn(len(st.learned))]
		e.pin = &incr.PinKey{Rep: ent.Rep, Role: ent.Role}
		if truth.HasRole(ent.Rep, ent.Role) {
			e.pinVal = 1
		}
		st.pins[*e.pin] = e.pinVal
	}
	return e
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// relearnSession: each op replays what `seldon -session-dir` does for
// one corpus change — load the session, splice the edit batch, relearn,
// save. At the end the session's store must equal a from-scratch learn
// of the edited corpus under the same feedback pins.
func relearnSession(r *run) (*outcome, error) {
	o := newOutcome()
	seed := corpus.ExperimentSeed()
	k := 0
	st, setup, err := measureSetup(setupRepeats, func() (*sessionState, error) {
		k++
		return r.newSessionState(k, seed)
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.inputSeed(2)))
	truth := corpus.NewTruth()

	var times opTimes
	var layers []map[string]float64
	var last storeRecord
	err = r.opLoop(func(i int) error {
		e := st.nextEdit(i, rng, truth)
		cfg := core.Config{Workers: r.procs, Cache: st.cache}
		traced := r.traces(i)
		id := -1
		if traced {
			cfg.Metrics = obs.New()
			id = r.tr.beginOp("op")
		}
		fc0 := st.cache.Stats()
		m := map[string]float64{}
		o.attempted++
		t0 := time.Now()
		res, stats, err := r.sessionOp(id, st.dir, seed, cfg, e)
		times.add(traced, time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: relearn op %d: %v\n", i, err)
			return nil
		}
		if stats.FilesChanged == 0 {
			return mismatch("relearn op %d saw no changed files", i)
		}
		st.learned = res.LearnedEntries(seed)
		if traced {
			fc := st.cache.Stats()
			hits, misses := fc.Hits-fc0.Hits, fc.Misses-fc0.Misses
			m["fpcache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
			m["fpcache.bytes"] = float64(fc.BytesRead - fc0.BytesRead + fc.BytesWritten - fc0.BytesWritten)
			m["constraints.spans_reused_ratio"] = float64(stats.Delta.SpansReused) / float64(max(stats.Delta.Spans, 1))
			m["incr.state_bytes"] = fileSize(filepath.Join(st.dir, incr.StateFile)) +
				fileSize(filepath.Join(st.dir, incr.FlowCacheFile))
			relearnLayers(cfg.Metrics, m)
			recordSystem(res, m)
			m["propgraph.union_events"] = float64(len(res.Graph.Events))
			m["propgraph.union_edges"] = float64(res.Graph.NumEdges())
			layers = append(layers, m)
		}
		last = recordStore(res, seed)
		return nil
	})
	if err != nil {
		return o, err
	}

	// The gate: a cold session over the edited corpus, same pins.
	cfg := core.Config{Workers: r.procs}
	fresh := incr.NewSession(seed, cfg)
	fe := core.AnalyzeFiles(st.cur, cfg)
	for i, name := range fe.Names {
		fresh.Splice(name, fe.Graphs[i])
	}
	for p, v := range st.pins {
		fresh.Pin(p.Rep, p.Role, v)
	}
	res, _ := fresh.Relearn()
	want := recordStore(res, seed)

	last.report(o, "relearn_session")
	learnE2E(o, times.plain, sessionFiles, setup)
	if r.tr != nil {
		medianLayers(layers, o.layer)
		times.report(o, "relearn_ms_p50", 1000)
	}
	if last.sha != want.sha {
		return o, mismatch("session store %s differs from from-scratch store %s after %d ops (%d pins): %d entries differ",
			last.sha, want.sha, o.attempted, len(st.pins), entryDiff(last.text, want.text))
	}
	return o, nil
}

// entryDiff counts the lines of one store text missing from the other,
// both ways.
func entryDiff(a, b string) int {
	count := func(x, y string) int {
		in := map[string]bool{}
		for _, l := range strings.Split(y, "\n") {
			in[l] = true
		}
		n := 0
		for _, l := range strings.Split(x, "\n") {
			if !in[l] {
				n++
			}
		}
		return n
	}
	return count(a, b) + count(b, a)
}

// sessionOp is one relearn_session op.
func (r *run) sessionOp(id int, dir string, seed *spec.Spec, cfg core.Config, e edit) (*core.Result, incr.RelearnStats, error) {
	var sess *incr.Session
	var err error
	r.tr.around(id, "incr.load", func() { sess, err = incr.LoadDir(dir, seed, cfg) })
	if err != nil {
		return nil, incr.RelearnStats{}, fmt.Errorf("loading session: %w", err)
	}
	r.tr.around(id, "incr.splice", func() {
		for _, name := range sortedKeys(e.splice) {
			sess.SpliceSource(name, e.splice[name])
		}
		sess.Retract(e.retract)
		if e.pin != nil {
			sess.Pin(e.pin.Rep, e.pin.Role, e.pinVal)
		}
	})
	var res *core.Result
	var stats incr.RelearnStats
	r.tr.around(id, "incr.relearn", func() { res, stats = sess.Relearn() })
	r.tr.around(id, "incr.save", func() { err = sess.SaveDir(dir) })
	if err != nil {
		return nil, stats, fmt.Errorf("saving session: %w", err)
	}
	return res, stats, nil
}

// relearnLayers splits one Relearn call using the session's own stage
// timers, since the benchmark has no boundary inside it: the constraint
// passes, the solve (core.LearnPrepared), and the rest of the rebuild —
// the union plus span hashing — as the union layer. It also reads the
// spliced files' front-end timers.
func relearnLayers(reg *obs.Registry, m map[string]float64) {
	sum := func(name string) float64 {
		t, _ := reg.Timer(name)
		return t.Sum
	}
	build := sum(obs.StageConstraintsFreq) + sum(obs.StageConstraintsFilter) +
		sum(obs.StageConstraintsVars) + sum(obs.StageConstraintsFlow)
	m["constraints.build_s"] = build
	m["propgraph.union_s"] = sum(obs.StageIncrRebuild) - build
	m["lp.solve_s"] = sum(obs.StageIncrResolve)
	m["pyparse.busy_s"] = sum(obs.StageParse)
	m["dataflow.busy_s"] = sum(obs.StageDataflow)
	m["core.frontend_wall_s"] = sum(obs.StageFrontend)
	snap := reg.Snapshot()
	m["pyparse.files"] = float64(snap.Counters[obs.CounterFilesAnalyzed])
	m["pyparse.errors"] = float64(snap.Counters[obs.CounterParseErrors])
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}
