// Package constraints turns a global propagation graph and a seed
// specification into the relaxed linear constraint system of paper §4:
// one variable per (representation, role), information-flow constraints
// following the three patterns of Fig. 4, backoff averaging (§4.3), and
// equality constraints for the hand-labeled seed (§4.1).
//
// The build works on interned symbols throughout: representation
// frequencies and the (representation, role) → variable mapping live in
// dense arrays indexed by propgraph.Sym instead of string-keyed maps,
// and the frequency and candidate-filter passes shard across a worker
// pool. Results are bitwise identical at every worker count — shards are
// contiguous event ranges merged in order, and the frequency merge is an
// integer sum.
package constraints

import (
	"runtime"
	"sync"
	"time"

	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// Options configures constraint generation.
type Options struct {
	// C is the implication-strength constant (paper: 0.75).
	C float64
	// Lambda is the L1 regularization weight (paper: 0.1).
	Lambda float64
	// BackoffCutoff drops representations occurring fewer times in the
	// dataset (paper: 5). Seed representations always survive.
	BackoffCutoff int
	// MaxComponent skips constraint generation inside weakly connected
	// components larger than this bound (guards against pathological
	// generated files). Default 50000.
	MaxComponent int
	// Workers bounds the goroutines used for the frequency and
	// candidate-filter passes (the core.Config.Workers convention:
	// 0 selects GOMAXPROCS, 1 keeps the sequential path). Results are
	// bitwise identical at every count.
	Workers int
	// Metrics, when non-nil, receives constraint-system size gauges
	// (variables, events, per-pattern constraint counts) and the
	// stage.constraints.* sub-timers.
	Metrics *obs.Registry
}

// WithDefaults fills every zero knob with its default (C 0.75, Lambda
// 0.1, BackoffCutoff 5, MaxComponent 50000).
func (o Options) WithDefaults() Options {
	if o.C == 0 {
		o.C = 0.75
	}
	if o.Lambda == 0 {
		o.Lambda = 0.1
	}
	if o.BackoffCutoff == 0 {
		o.BackoffCutoff = 5
	}
	if o.MaxComponent == 0 {
		o.MaxComponent = 50000
	}
	return o
}

// workerCount resolves Options.Workers against n work items.
func (o Options) workerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// shardRange is one contiguous chunk of work, [Lo, Hi).
type shardRange struct{ lo, hi int }

// shardRanges splits n items into at most w contiguous chunks.
func shardRanges(n, w int) []shardRange {
	if w < 1 {
		w = 1
	}
	per := (n + w - 1) / w
	var out []shardRange
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		out = append(out, shardRange{lo, hi})
	}
	return out
}

// runShards executes f once per shard, concurrently when there is more
// than one shard. Shard contents are fixed by index arithmetic, never by
// scheduling, so per-shard results are deterministic.
func runShards(shards []shardRange, f func(shard int, lo, hi int)) {
	if len(shards) == 1 {
		f(0, shards[0].lo, shards[0].hi)
		return
	}
	var wg sync.WaitGroup
	for i, sr := range shards {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			f(i, lo, hi)
		}(i, sr.lo, sr.hi)
	}
	wg.Wait()
}

// Variable identifies one score in the system.
type Variable struct {
	Rep  string
	Role propgraph.Role
}

// EventInfo records, per candidate event, the representations that
// survived the frequency cutoff and blacklist (most specific first), as
// symbols in the graph's table.
type EventInfo struct {
	EventID int
	RepIDs  []propgraph.Sym
	Roles   propgraph.RoleSet
}

// System is the constraint system plus the metadata needed to map solver
// scores back to events and representations.
type System struct {
	Problem *lp.Problem
	Vars    []Variable
	// Syms is the graph's symbol table; EventInfo.RepIDs and the
	// variable index are expressed against it.
	Syms *propgraph.Interner
	// varIDs maps sym*NumRoles+role to a variable index, -1 when absent.
	varIDs []int32
	// varSyms records the symbol of each variable, aligned with Vars.
	varSyms []propgraph.Sym
	// EventInfos lists candidate events in event-ID order.
	EventInfos []EventInfo
	// infoByEvent maps event ID to its position in EventInfos (or -1).
	infoByEvent []int
	// Counts of generated constraints by pattern (Fig. 4a, 4b, 4c).
	CountA, CountB, CountC int
	// SkippedComponents counts components over the MaxComponent bound.
	SkippedComponents int
	Opts              Options
}

// VarIDSym returns the variable index for (sym, role), or -1.
func (s *System) VarIDSym(sym propgraph.Sym, role propgraph.Role) int {
	slot := int(sym)*int(propgraph.NumRoles) + int(role)
	if slot < 0 || slot >= len(s.varIDs) {
		return -1
	}
	if id := s.varIDs[slot]; id >= 0 {
		return int(id)
	}
	return -1
}

// VarID returns the variable index for (rep, role), or -1.
func (s *System) VarID(rep string, role propgraph.Role) int {
	sym, ok := s.Syms.Lookup(rep)
	if !ok {
		return -1
	}
	return s.VarIDSym(sym, role)
}

// InfoFor returns the EventInfo for an event ID, or nil if the event is
// not a candidate.
func (s *System) InfoFor(eventID int) *EventInfo {
	if eventID < 0 || eventID >= len(s.infoByEvent) || s.infoByEvent[eventID] < 0 {
		return nil
	}
	return &s.EventInfos[s.infoByEvent[eventID]]
}

// Build constructs the constraint system for a global propagation graph:
// BuildIncremental with no spans and no cache, i.e. a full flow pass.
func Build(g *propgraph.Graph, seed *spec.Spec, opts Options) *System {
	s, _ := BuildIncremental(g, seed, opts, nil, nil)
	return s
}

// buildCore runs passes 1–3 (frequencies, candidate filter, variables +
// seed pins) and returns the system ready for flow-constraint
// generation, plus the resolved worker count.
func buildCore(g *propgraph.Graph, seed *spec.Spec, opts Options) (*System, int) {
	s := &System{
		Syms:        g.Syms,
		infoByEvent: make([]int, len(g.Events)),
		Opts:        opts,
	}
	m := opts.Metrics
	strs := g.Syms.Strings()
	nsyms := len(strs)
	workers := opts.workerCount(len(g.Events))
	shards := shardRanges(len(g.Events), workers)

	// Pass 1: representation frequencies across the dataset, sharded over
	// contiguous event ranges and merged by integer sum (order-free, so
	// identical at every worker count).
	//
	// Frequency semantics, pinned by TestBuildCountsRepOccurrences: a
	// representation counts once per occurrence in an event's backoff
	// chain, NOT once per event. If the same representation appears at
	// several backoff levels of one event (class base chains can repeat a
	// name), every slot contributes to the count that BackoffCutoff is
	// compared against — exactly what the original string-keyed
	// implementation did.
	t0 := time.Now()
	repCount := make([]int32, nsyms)
	if len(shards) == 1 {
		for _, e := range g.Events {
			for _, sym := range e.RepIDs {
				repCount[sym]++
			}
		}
	} else {
		shardCounts := make([][]int32, len(shards))
		runShards(shards, func(shard, lo, hi int) {
			cnt := make([]int32, nsyms)
			for _, e := range g.Events[lo:hi] {
				for _, sym := range e.RepIDs {
					cnt[sym]++
				}
			}
			shardCounts[shard] = cnt
		})
		for _, cnt := range shardCounts {
			for i, c := range cnt {
				repCount[i] += c
			}
		}
	}
	m.ObserveDuration(obs.StageConstraintsFreq, time.Since(t0))

	// Pass 2: candidate events and their surviving representations. Seed
	// roles and the glob blacklist are evaluated once per distinct symbol
	// (spec.SymIndex), then each shard filters its contiguous event range
	// into a local arena; shard outputs concatenate in range order, which
	// is exactly the sequential order.
	t0 = time.Now()
	ix := seed.IndexStrings(strs)
	cutoff := int32(opts.BackoffCutoff)
	type filtered struct {
		infos  []EventInfo
		starts []int
		arena  []propgraph.Sym
	}
	shardOut := make([]filtered, len(shards))
	runShards(shards, func(shard, lo, hi int) {
		// Pre-size to upper bounds (every event kept, every occurrence
		// surviving) so the filter loop never reallocates.
		occ := 0
		for _, e := range g.Events[lo:hi] {
			occ += len(e.RepIDs)
		}
		out := filtered{
			infos:  make([]EventInfo, 0, hi-lo),
			starts: make([]int, 0, hi-lo),
			arena:  make([]propgraph.Sym, 0, occ),
		}
		for _, e := range g.Events[lo:hi] {
			start := len(out.arena)
			for _, sym := range e.RepIDs {
				if ix.Blacklisted(sym) {
					continue
				}
				if repCount[sym] >= cutoff || ix.Roles(sym) != 0 {
					out.arena = append(out.arena, sym)
				}
			}
			if len(out.arena) == start {
				continue
			}
			out.infos = append(out.infos, EventInfo{EventID: e.ID, Roles: e.Roles})
			out.starts = append(out.starts, start)
		}
		// The arena no longer grows; carve the per-event slices.
		for i := range out.infos {
			end := len(out.arena)
			if i+1 < len(out.infos) {
				end = out.starts[i+1]
			}
			out.infos[i].RepIDs = out.arena[out.starts[i]:end:end]
		}
		shardOut[shard] = out
	})
	if len(shardOut) == 1 {
		s.EventInfos = shardOut[0].infos
	} else {
		total := 0
		for i := range shardOut {
			total += len(shardOut[i].infos)
		}
		s.EventInfos = make([]EventInfo, 0, total)
		for i := range shardOut {
			s.EventInfos = append(s.EventInfos, shardOut[i].infos...)
		}
	}
	for i := range s.infoByEvent {
		s.infoByEvent[i] = -1
	}
	for i := range s.EventInfos {
		s.infoByEvent[s.EventInfos[i].EventID] = i
	}
	m.ObserveDuration(obs.StageConstraintsFilter, time.Since(t0))

	// Pass 3: variables, one per surviving (rep, role), assigned in
	// first-seen order over (event, role, backoff) — the same order the
	// string-keyed implementation produced.
	t0 = time.Now()
	s.varIDs = make([]int32, nsyms*int(propgraph.NumRoles))
	for i := range s.varIDs {
		s.varIDs[i] = -1
	}
	for i := range s.EventInfos {
		info := &s.EventInfos[i]
		for _, role := range propgraph.Roles() {
			if !info.Roles.Has(role) {
				continue
			}
			for _, sym := range info.RepIDs {
				slot := int(sym)*int(propgraph.NumRoles) + int(role)
				if s.varIDs[slot] < 0 {
					s.varIDs[slot] = int32(len(s.Vars))
					s.Vars = append(s.Vars, Variable{Rep: strs[sym], Role: role})
					s.varSyms = append(s.varSyms, sym)
				}
			}
		}
	}

	// Known variables from the seed: an entry pins its role to 1 and the
	// rep's other roles to 0 (§4.1). Seed entries are fully qualified
	// names, i.e. longest backoff options.
	known := make(map[int]float64)
	for i, v := range s.Vars {
		roles := ix.Roles(s.varSyms[i])
		if roles == 0 {
			continue
		}
		if roles.Has(v.Role) {
			known[i] = 1
		} else {
			known[i] = 0
		}
	}

	s.Problem = &lp.Problem{
		NumVars: len(s.Vars),
		C:       opts.C,
		Lambda:  opts.Lambda,
		Known:   known,
	}
	m.ObserveDuration(obs.StageConstraintsVars, time.Since(t0))
	return s, workers
}

// finishMetrics publishes the constraint-system size gauges once the
// flow pass has run.
func (s *System) finishMetrics(workers int) {
	m := s.Opts.Metrics
	m.Set("constraints.vars", float64(len(s.Vars)))
	m.Set("constraints.known_vars", float64(len(s.Problem.Known)))
	m.Set("constraints.events", float64(len(s.EventInfos)))
	m.Set("constraints.total", float64(len(s.Problem.Constraints)))
	m.Set("constraints.pattern_a", float64(s.CountA))
	m.Set("constraints.pattern_b", float64(s.CountB))
	m.Set("constraints.pattern_c", float64(s.CountC))
	m.Set("constraints.skipped_components", float64(s.SkippedComponents))
	m.Set("constraints.workers", float64(workers))
}

// terms builds the backoff-averaged linear terms for an event playing a
// role: the average of its surviving representations' variables (§4.3).
func (s *System) terms(info *EventInfo, role propgraph.Role) []lp.Term {
	if info == nil || !info.Roles.Has(role) {
		return nil
	}
	coef := 1.0 / float64(len(info.RepIDs))
	out := make([]lp.Term, 0, len(info.RepIDs))
	for _, sym := range info.RepIDs {
		if id := s.VarIDSym(sym, role); id >= 0 {
			out = append(out, lp.Term{Var: id, Coef: coef})
		}
	}
	return out
}

// candidate role tests over EventInfo.
func (s *System) isCand(id int, role propgraph.Role) bool {
	info := s.InfoFor(id)
	return info != nil && info.Roles.Has(role)
}

// flowScratch holds buffers reused across buildComponent calls so the
// per-component bookkeeping (degrees, topological order, reachability
// bitsets) does not allocate once the largest component has been seen.
type flowScratch struct {
	localOf []int32 // event ID -> index within its component bucket
	indeg   []int
	queue   []int
	order   []int
	fwd     []bitset
	words   []uint64 // backing arena for fwd
}

// prep resizes the scratch for a component of m events and returns the
// zeroed indeg slice and bitsets.
func (sc *flowScratch) prep(m int) ([]int, []bitset) {
	if cap(sc.indeg) < m {
		sc.indeg = make([]int, m)
		sc.queue = make([]int, 0, m)
		sc.order = make([]int, 0, m)
		sc.fwd = make([]bitset, m)
	}
	indeg := sc.indeg[:m]
	for i := range indeg {
		indeg[i] = 0
	}
	wpb := (m + 63) / 64
	if cap(sc.words) < m*wpb {
		sc.words = make([]uint64, m*wpb)
	}
	words := sc.words[:m*wpb]
	for i := range words {
		words[i] = 0
	}
	fwd := sc.fwd[:m]
	for i := range fwd {
		fwd[i] = bitset(words[i*wpb : (i+1)*wpb])
	}
	return indeg, fwd
}

// buildComponent generates constraints inside one component. Neighbor IDs
// translate through sc.localOf: successors and predecessors of a component
// member are, by definition of weak connectivity, members themselves.
func (s *System) buildComponent(g *propgraph.Graph, events []int, sc *flowScratch) {
	m := len(events)
	indeg, fwd := sc.prep(m)
	// Topological order. Analyzer-built graphs are DAGs; hand-built
	// graphs may contain cycles, in which case the sort is incomplete and
	// reachability falls back to a fixpoint iteration below.
	for _, id := range events {
		for _, dst := range g.Succs(id) {
			indeg[sc.localOf[dst]]++
		}
	}
	queue := sc.queue[:0]
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := sc.order[:0]
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, dst := range g.Succs(events[i]) {
			j := sc.localOf[dst]
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, int(j))
			}
		}
	}

	// Forward reachability bitsets: one reverse-topological pass for DAGs,
	// fixpoint iteration when the component is cyclic (the paper notes the
	// method supports cycles in principle, §5.2).
	if len(order) == m {
		for k := len(order) - 1; k >= 0; k-- {
			i := order[k]
			for _, dst := range g.Succs(events[i]) {
				j := sc.localOf[dst]
				fwd[i].set(int(j))
				fwd[i].or(fwd[j])
			}
		}
	} else {
		for changed := true; changed; {
			changed = false
			for i := 0; i < m; i++ {
				for _, dst := range g.Succs(events[i]) {
					j := sc.localOf[dst]
					if fwd[i].setChanged(int(j)) {
						changed = true
					}
					if fwd[i].orChanged(fwd[j]) {
						changed = true
					}
				}
			}
		}
	}

	// Sources flowing into each sanitizer candidate.
	srcsOf := make(map[int][]int) // local sanitizer index -> local source indices
	for i := 0; i < m; i++ {
		if !s.isCand(events[i], propgraph.Source) {
			continue
		}
		fwd[i].forEach(func(j int) {
			if s.isCand(events[j], propgraph.Sanitizer) {
				srcsOf[j] = append(srcsOf[j], i)
			}
		})
	}

	addConstraint := func(lhs, rhs []lp.Term, kind *int) {
		if len(lhs) == 0 {
			return
		}
		s.Problem.Constraints = append(s.Problem.Constraints, lp.Constraint{LHS: lhs, RHS: rhs})
		*kind++
	}

	for i := 0; i < m; i++ {
		ei := events[i]
		switch {
		case s.isCand(ei, propgraph.Sanitizer):
			sanTerms := s.terms(s.InfoFor(ei), propgraph.Sanitizer)
			// Sinks reachable from this sanitizer.
			var sinks []int
			fwd[i].forEach(func(j int) {
				if s.isCand(events[j], propgraph.Sink) {
					sinks = append(sinks, j)
				}
			})
			srcs := srcsOf[i]

			// Fig. 4a: san(i) + snk(t) <= Σ src(u) + C, per sink t.
			var srcSum []lp.Term
			for _, u := range srcs {
				srcSum = append(srcSum, s.terms(s.InfoFor(events[u]), propgraph.Source)...)
			}
			for _, t := range sinks {
				lhs := append(append([]lp.Term(nil), sanTerms...),
					s.terms(s.InfoFor(events[t]), propgraph.Sink)...)
				addConstraint(lhs, srcSum, &s.CountA)
			}

			// Fig. 4b: src(u) + san(i) <= Σ snk(t) + C, per source u.
			var snkSum []lp.Term
			for _, t := range sinks {
				snkSum = append(snkSum, s.terms(s.InfoFor(events[t]), propgraph.Sink)...)
			}
			for _, u := range srcs {
				lhs := append(append([]lp.Term(nil),
					s.terms(s.InfoFor(events[u]), propgraph.Source)...), sanTerms...)
				addConstraint(lhs, snkSum, &s.CountB)
			}
		}

		// Fig. 4c: src(i) + snk(t) <= Σ san(s on some i→t path) + C.
		if s.isCand(ei, propgraph.Source) {
			srcTerms := s.terms(s.InfoFor(ei), propgraph.Source)
			var sanMid []int
			fwd[i].forEach(func(j int) {
				if s.isCand(events[j], propgraph.Sanitizer) {
					sanMid = append(sanMid, j)
				}
			})
			fwd[i].forEach(func(t int) {
				if !s.isCand(events[t], propgraph.Sink) {
					return
				}
				var sanSum []lp.Term
				for _, sMid := range sanMid {
					if fwd[sMid].has(t) {
						sanSum = append(sanSum,
							s.terms(s.InfoFor(events[sMid]), propgraph.Sanitizer)...)
					}
				}
				lhs := append(append([]lp.Term(nil), srcTerms...),
					s.terms(s.InfoFor(events[t]), propgraph.Sink)...)
				addConstraint(lhs, sanSum, &s.CountC)
			})
		}
	}
}
