package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"seldon/internal/constraints"
	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/eval"
	"seldon/internal/lp"
	"seldon/internal/propgraph"
	"seldon/internal/shard"
	"seldon/internal/spec"
)

const (
	coldFiles    = 9600 // learn_cold corpus size
	shardedFiles = 2400 // learn_sharded corpus size
	shardSlices  = 4
	// setupRepeats is how often each workload builds its set-up; the
	// reported setup_s is the median.
	setupRepeats = 5
	// precisionSeed fixes eval.SamplePrecision's draw. The sample takes
	// every learned entry, so precision is exact rather than the paper's
	// 50 per role, and carries no sampling noise.
	precisionSeed = 1
	// nearEpsilon is the margin over the selection threshold below
	// which a learned entry counts as near the threshold.
	nearEpsilon = 0.01
	// Selection defaults of core.Config (paper §7): threshold, decay.
	threshold = 0.1
	decay     = 0.8
)

// storeRecord identifies one learned store and records its quality.
type storeRecord struct {
	text              string // merged (seed + learned) store, spec text format
	sha               string
	precision, recall float64
	learned, near     int
}

func recordStore(res *core.Result, seed *spec.Spec) storeRecord {
	text := res.LearnedSpec(seed).Format()
	sum := sha256.Sum256([]byte(text))
	entries := res.LearnedEntries(seed)
	return storeRecord{
		text:      text,
		sha:       hex.EncodeToString(sum[:]),
		precision: eval.SamplePrecision(entries, corpus.NewTruth(), len(entries), precisionSeed).Overall().Precision(),
		recall:    eval.MeasureRecall(entries, corpus.LearnableReps()).Fraction(),
		learned:   len(entries),
		near:      nearThreshold(res, seed),
	}
}

// nearThreshold counts learned (non-seed) entries whose best decayed
// score decay^backoff·score is within nearEpsilon of the threshold.
func nearThreshold(res *core.Result, seed *spec.Spec) int {
	type key struct {
		rep  string
		role propgraph.Role
	}
	best := map[key]float64{}
	for _, p := range res.Predictions {
		if seed.RolesOf(p.Rep).Has(p.Role) {
			continue
		}
		k := key{p.Rep, p.Role}
		if d := math.Pow(decay, float64(p.Backoff)) * p.Score; d > best[k] {
			best[k] = d
		}
	}
	n := 0
	for _, d := range best {
		if d-threshold < nearEpsilon {
			n++
		}
	}
	return n
}

// report copies a store's quality record into the outcome: the
// end-to-end precision and recall, the per-layer entry counts, and an
// identity line with the store's sha256.
func (s storeRecord) report(o *outcome, what string) {
	o.e2e["precision"] = s.precision
	o.e2e["recall"] = s.recall
	o.layer["core.learned_entries"] = float64(s.learned)
	o.layer["core.near_threshold"] = float64(s.near)
	o.note("%s store sha256 %s (learned %d, near threshold %d, precision %.4f, recall %.4f)",
		what, s.sha, s.learned, s.near, s.precision, s.recall)
}

// frontend runs the corpus front-end under a span and records the
// parse and dataflow layer counters into m.
func (r *run) frontend(parent int, files map[string]string, cfg core.Config, m map[string]float64) *core.FrontEnd {
	var fe *core.FrontEnd
	wall := r.tr.around(parent, "core.frontend_wall", func() { fe = core.AnalyzeFiles(files, cfg) })
	addFrontend(fe, wall, m)
	return fe
}

// addFrontend accumulates one front-end run's counters into m.
func addFrontend(fe *core.FrontEnd, wall float64, m map[string]float64) {
	events, edges := 0, 0
	for _, g := range fe.Graphs {
		events += len(g.Events)
		edges += g.NumEdges()
	}
	m["pyparse.busy_s"] += fe.ParseTotal.Seconds()
	m["pyparse.files"] += float64(len(fe.Names))
	m["pyparse.errors"] += float64(len(fe.ParseErrorFiles))
	m["dataflow.busy_s"] += fe.AnalyzeTotal.Seconds()
	m["dataflow.events"] += float64(events)
	m["dataflow.edges"] += float64(edges)
	m["core.frontend_wall_s"] += wall
	// Efficiency over the summed walls of every front-end call so far.
	m["core.frontend_workers_s"] += wall * float64(fe.Workers)
	m["core.frontend_efficiency"] = (m["pyparse.busy_s"] + m["dataflow.busy_s"]) / m["core.frontend_workers_s"]
}

// union merges graphs under a span and records the union's size.
func (r *run) union(parent int, graphs []*propgraph.Graph, m map[string]float64) *propgraph.Graph {
	var g *propgraph.Graph
	r.tr.around(parent, "propgraph.union", func() { g = propgraph.Union(graphs...) })
	m["propgraph.union_events"] = float64(len(g.Events))
	m["propgraph.union_edges"] = float64(g.NumEdges())
	return g
}

// solve builds the constraint system and solves it, each under its own
// span: the two halves core.Learn runs.
func (r *run) solve(parent int, g *propgraph.Graph, seed *spec.Spec, cfg core.Config) *core.Result {
	copts := cfg.Constraints
	if copts.Workers == 0 {
		copts.Workers = cfg.Workers
	}
	var sys *constraints.System
	r.tr.around(parent, "constraints.build", func() { sys = constraints.Build(g, seed, copts) })
	var res *core.Result
	r.tr.around(parent, "lp.solve", func() { res = core.LearnPrepared(g, sys, cfg) })
	return res
}

// recordSystem records the constraint-system and solver counters of a
// learn result. Counting distinct rows is not free, so callers run it
// outside the op's timing.
func recordSystem(res *core.Result, m map[string]float64) {
	sys := res.System
	rows := len(sys.Problem.Constraints)
	m["constraints.rows"] = float64(rows)
	m["constraints.distinct_rows"] = float64(distinctRows(sys.Problem.Constraints))
	m["constraints.vars"] = float64(sys.Problem.NumVars)
	m["lp.epochs"] = float64(res.SolverEpochs)
	m["lp.row_visits"] = float64(res.SolverEpochs) * float64(rows)
}

// distinctRows counts constraints by canonical key: each side's terms
// sorted by variable then coefficient, so rows that differ only in term
// order count once.
func distinctRows(cons []lp.Constraint) int {
	seen := make(map[string]struct{}, len(cons)/2)
	var key []byte
	var terms []lp.Term
	side := func(ts []lp.Term) {
		terms = append(terms[:0], ts...)
		sort.Slice(terms, func(i, j int) bool {
			if terms[i].Var != terms[j].Var {
				return terms[i].Var < terms[j].Var
			}
			return terms[i].Coef < terms[j].Coef
		})
		for _, t := range terms {
			key = strconv.AppendInt(key, int64(t.Var), 36)
			key = append(key, ':')
			key = strconv.AppendFloat(key, t.Coef, 'g', -1, 64)
			key = append(key, ',')
		}
	}
	for i := range cons {
		key = key[:0]
		side(cons[i].LHS)
		key = append(key, '|')
		side(cons[i].RHS)
		seen[string(key)] = struct{}{}
	}
	return len(seen)
}

// opLoop runs op until the run's budget is spent (at least once),
// collecting GC between ops so one op's garbage does not bill the next.
func (r *run) opLoop(op func(i int) error) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < r.budget; i++ {
		runtime.GC()
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// learnE2E fills the end-to-end metrics every learn-style workload
// reports: op latency, files per second over the corpus, memory.
func learnE2E(o *outcome, opSeconds []float64, files int, setup float64) {
	o.note("%d ops, seconds each: %s", len(opSeconds), fmtSeconds(opSeconds))
	p50 := median(opSeconds)
	o.e2e["op_ms_p50"] = p50 * 1000
	o.e2e["throughput_per_s"] = float64(files) / p50
	o.e2e["setup_s"] = setup
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	o.layer["error_frac"] = float64(o.failed) / float64(o.attempted)
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// learnCold: each op is one full corpus learn from sources. A traced
// run alternates untraced core.LearnFromSources ops with ops that call
// the same layers one by one under spans; every op's store must be
// byte-identical, and the difference of the two kinds' medians is the
// tracing overhead.
func learnCold(r *run) (*outcome, error) {
	o := newOutcome()
	seed := corpus.ExperimentSeed()
	files, setup, err := measureSetup(setupRepeats, func() (map[string]string, error) {
		return corpus.Generate(corpus.Config{Files: coldFiles, Seed: r.inputSeed(0)}).FileMap(), nil
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Workers: r.procs}

	var times opTimes
	var layers []map[string]float64
	var ref *storeRecord
	err = r.opLoop(func(i int) error {
		o.attempted++
		var res *core.Result
		if r.traces(i) {
			m := map[string]float64{}
			id := r.tr.beginOp("op")
			fe := r.frontend(id, files, cfg, m)
			g := r.union(id, fe.Graphs, m)
			res = r.solve(id, g, seed, cfg)
			times.add(true, r.tr.end(id))
			recordSystem(res, m)
			layers = append(layers, m)
		} else {
			t0 := time.Now()
			res = core.LearnFromSources(files, seed, cfg)
			times.add(false, time.Since(t0).Seconds())
		}
		rec := recordStore(res, seed)
		if ref == nil {
			ref = &rec
		} else if rec.sha != ref.sha {
			return mismatch("op %d store %s differs from op 0 store %s", i, rec.sha, ref.sha)
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	ref.report(o, "learn_cold")
	learnE2E(o, times.plain, coldFiles, setup)
	if r.tr != nil {
		medianLayers(layers, o.layer)
		times.report(o, "learn_s", 1)
	}
	return o, nil
}

// learnSharded: each op cuts the corpus into slices, builds and writes
// each slice's artifact into memory, streams the artifacts back in a
// seeded shuffled order into a merger, and learns over the merged
// graph. Every op's store must be byte-identical to a single-process
// learn of the same corpus.
func learnSharded(r *run) (*outcome, error) {
	o := newOutcome()
	seed := corpus.ExperimentSeed()
	files, setup, err := measureSetup(setupRepeats, func() (map[string]string, error) {
		return corpus.Generate(corpus.Config{Files: shardedFiles, Seed: r.inputSeed(0)}).FileMap(), nil
	})
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Workers: r.procs}
	rng := rand.New(rand.NewSource(r.inputSeed(1)))

	var times opTimes
	var layers []map[string]float64
	var stores []storeRecord
	err = r.opLoop(func(i int) error {
		o.attempted++
		m := map[string]float64{}
		traced := r.traces(i)
		id := -1
		if traced {
			id = r.tr.beginOp("op")
		}
		t0 := time.Now()
		res, err := r.shardedLearn(id, files, seed, cfg, rng.Perm(shardSlices), m)
		times.add(traced, time.Since(t0).Seconds())
		r.tr.end(id)
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "perfbench: sharded op %d: %v\n", i, err)
			return nil
		}
		if traced {
			recordSystem(res, m)
			layers = append(layers, m)
		}
		stores = append(stores, recordStore(res, seed))
		return nil
	})
	if err != nil {
		return o, err
	}
	single := recordStore(core.LearnFromSources(files, seed, cfg), seed)
	single.report(o, "learn_sharded")
	learnE2E(o, times.plain, shardedFiles, setup)
	if r.tr != nil {
		medianLayers(layers, o.layer)
		times.report(o, "learn_s", 1)
	}
	for i, s := range stores {
		if s.sha != single.sha {
			return o, mismatch("sharded op %d store %s differs from single-process store %s", i, s.sha, single.sha)
		}
	}
	return o, nil
}

// shardedLearn is one learn_sharded op.
func (r *run) shardedLearn(id int, files map[string]string, seed *spec.Spec, cfg core.Config,
	order []int, m map[string]float64) (*core.Result, error) {
	encoded := make([][]byte, shardSlices)
	for i := 0; i < shardSlices; i++ {
		slice := core.SliceFiles(files, i, shardSlices)
		var a *shard.Artifact
		var fe *core.FrontEnd
		var err error
		r.tr.around(id, "shard.build", func() {
			a, fe, err = shard.Build(slice, i, shardSlices, cfg)
		})
		if err != nil {
			return nil, fmt.Errorf("building slice %d: %w", i, err)
		}
		addFrontend(fe, fe.Wall.Seconds(), m)
		var buf bytes.Buffer
		r.tr.around(id, "shard.write", func() { _, err = shard.Write(&buf, a) })
		if err != nil {
			return nil, fmt.Errorf("writing slice %d: %w", i, err)
		}
		m["shard.artifact_bytes"] += float64(buf.Len())
		encoded[i] = buf.Bytes()
	}
	merger := shard.NewMerger(shard.MergeOptions{})
	for _, i := range order {
		var a *shard.Artifact
		var err error
		r.tr.around(id, "shard.read", func() {
			a, err = shard.ReadArtifact(bytes.NewReader(encoded[i]), shard.ReadOptions{})
		})
		if err != nil {
			return nil, fmt.Errorf("reading slice %d: %w", i, err)
		}
		r.tr.around(id, "shard.merge", func() { err = merger.Commit(a) })
		if err != nil {
			return nil, fmt.Errorf("committing slice %d: %w", i, err)
		}
	}
	var mres *shard.MergeResult
	var err error
	r.tr.around(id, "shard.merge", func() { mres, err = merger.Finish() })
	if err != nil {
		return nil, fmt.Errorf("finishing merge: %w", err)
	}
	m["propgraph.union_events"] = float64(len(mres.Graph.Events))
	m["propgraph.union_edges"] = float64(mres.Graph.NumEdges())
	return r.solve(id, mres.Graph, seed, cfg), nil
}
