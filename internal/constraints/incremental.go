package constraints

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"time"

	"seldon/internal/lp"
	"seldon/internal/obs"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

// The flow pass and its delta-aware reuse. A disjoint union assigns each
// corpus file a contiguous event-ID range, and edges never cross files,
// so weakly connected components — the unit pass 4 generates constraints
// over — never cross file spans either. Components are discovered in
// ascending event-ID order, which means the global flow pass is exactly
// the concatenation of per-file flow passes in span order. The pass is
// therefore one routine, buildFlowRange: a full build runs it once over
// [0, n), and BuildIncremental runs it per file span, reusing a cached
// constraint block for every file whose support set is unchanged. Passes
// 1–3 (linear, cheap) run from scratch every time.
//
// A block's support set is everything its constraints can depend on:
// the file's internal graph structure (covered by the span's content
// hash) and, per event, the surviving representations with their global
// variable IDs for every role (covered by the fingerprint below). The
// fingerprint is global-state-aware by construction — a change in one
// file that shifts another file's frequencies past the cutoff, or
// renumbers its variables, changes that file's fingerprint and forces a
// rebuild — so a cache hit is sound, not heuristic. The equivalence
// tests pin the stronger property: the incrementally built system is
// byte-identical to a full build on the same graph.

// Span describes the contiguous event range one corpus file contributes
// to a disjoint union. Hash identifies the file's graph content (the
// sha256 of its binary encoding); two spans with equal hashes carry
// structurally identical subgraphs.
type Span struct {
	File   string
	Lo, Hi int // event IDs [Lo, Hi)
	Hash   [32]byte
}

// flowBlock is the cached pass-4 output for one file span: the
// constraints (terms carry global variable IDs), the per-pattern counts,
// and the support fingerprint they are valid under.
type flowBlock struct {
	fp      [32]byte
	cons    []lp.Constraint
	countA  int
	countB  int
	countC  int
	skipped int
}

// FlowCache holds per-file flow-constraint blocks across incremental
// builds. It is not safe for concurrent use; the owning session
// serializes builds.
type FlowCache struct {
	blocks map[string]*flowBlock
}

// NewFlowCache returns an empty cache.
func NewFlowCache() *FlowCache {
	return &FlowCache{blocks: make(map[string]*flowBlock)}
}

// Len returns the number of cached file blocks.
func (c *FlowCache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.blocks)
}

// DeltaStats reports what one BuildIncremental call reused.
type DeltaStats struct {
	// Spans is the number of file spans presented; SpansReused the
	// subset whose cached constraint block was valid, SpansRebuilt the
	// rest. ConstraintsReused counts constraints taken from the cache.
	Spans             int
	SpansReused       int
	SpansRebuilt      int
	ConstraintsReused int
	// FellBack reports that the spans did not cleanly tile the graph
	// (or an edge crossed a span boundary) and the flow pass ran the
	// ordinary full build instead. The result is still correct — the
	// cache just contributed nothing.
	FellBack bool
}

// BuildIncremental constructs the constraint system for a global
// propagation graph, reusing cached flow-constraint blocks for files
// whose support set is unchanged since the last build; the result is
// byte-identical to a full build. spans must list the union's file spans
// in event-ID order; cache carries blocks between calls and is updated in
// place (stale files pruned, rebuilt files replaced). A nil cache or
// invalid spans degrade to a full build. The incr.* reuse gauges and the
// flowcache.* counters are recorded only when a cache is passed.
func BuildIncremental(g *propgraph.Graph, seed *spec.Spec, opts Options,
	spans []Span, cache *FlowCache) (*System, DeltaStats) {
	opts = opts.WithDefaults()
	s, workers := buildCore(g, seed, opts)
	m := opts.Metrics
	st := DeltaStats{Spans: len(spans)}

	t0 := time.Now()
	sc := flowScratch{localOf: make([]int32, len(g.Events))}
	if cache == nil || !spansClosed(g, spans) {
		st.FellBack = true
		s.buildFlowRange(g, 0, len(g.Events), &sc)
	} else {
		h := sha256.New()
		for i := range spans {
			sp := &spans[i]
			fp := s.spanFingerprint(h, g, sp)
			if b := cache.blocks[sp.File]; b != nil && b.fp == fp {
				s.Problem.Constraints = append(s.Problem.Constraints, b.cons...)
				s.CountA += b.countA
				s.CountB += b.countB
				s.CountC += b.countC
				s.SkippedComponents += b.skipped
				st.SpansReused++
				st.ConstraintsReused += len(b.cons)
				continue
			}
			start := len(s.Problem.Constraints)
			a0, b0, c0, k0 := s.CountA, s.CountB, s.CountC, s.SkippedComponents
			s.buildFlowRange(g, sp.Lo, sp.Hi, &sc)
			cache.blocks[sp.File] = &flowBlock{
				fp:      fp,
				cons:    append([]lp.Constraint(nil), s.Problem.Constraints[start:]...),
				countA:  s.CountA - a0,
				countB:  s.CountB - b0,
				countC:  s.CountC - c0,
				skipped: s.SkippedComponents - k0,
			}
			st.SpansRebuilt++
		}
		// Prune blocks for files no longer in the union.
		if len(cache.blocks) > len(spans) {
			live := make(map[string]bool, len(spans))
			for i := range spans {
				live[spans[i].File] = true
			}
			for f := range cache.blocks {
				if !live[f] {
					delete(cache.blocks, f)
				}
			}
		}
	}
	m.ObserveDuration(obs.StageConstraintsFlow, time.Since(t0))

	s.finishMetrics(workers)
	if cache != nil {
		m.Set(obs.GaugeIncrSpansReused, float64(st.SpansReused))
		m.Set(obs.GaugeIncrConstraintsReused, float64(st.ConstraintsReused))
		// flowcache.{hits,misses} count per-span block reuse whenever a
		// cache is in play; a fallback build consulted the cache for
		// nothing, so every presented span is a miss.
		m.Add(obs.CounterFlowCacheHits, int64(st.SpansReused))
		if st.FellBack {
			m.Add(obs.CounterFlowCacheMisses, int64(len(spans)))
		} else {
			m.Add(obs.CounterFlowCacheMisses, int64(st.SpansRebuilt))
		}
	}
	return s, st
}

// spansClosed validates that spans tile [0, len(Events)) in order and
// that no edge crosses a span boundary — the precondition for per-span
// flow building to reproduce the global pass.
func spansClosed(g *propgraph.Graph, spans []Span) bool {
	n := len(g.Events)
	at := 0
	for i := range spans {
		sp := &spans[i]
		if sp.Lo != at || sp.Hi < sp.Lo {
			return false
		}
		at = sp.Hi
	}
	if at != n {
		return false
	}
	spanOf := make([]int32, n)
	for i := range spans {
		for id := spans[i].Lo; id < spans[i].Hi; id++ {
			spanOf[id] = int32(i)
		}
	}
	for id := 0; id < n; id++ {
		for _, dst := range g.Succs(id) {
			if spanOf[dst] != spanOf[id] {
				return false
			}
		}
	}
	return true
}

// spanFingerprint hashes everything a span's constraint block depends
// on: the file's graph content, the component size bound, and — per
// event in the span — its candidacy, roles, and the global variable ID
// of every (surviving representation, role) pair. Variable IDs are
// global first-seen, so any upstream change that renumbers this file's
// variables (or moves a representation across the frequency cutoff)
// changes the fingerprint.
func (s *System) spanFingerprint(h hash.Hash, g *propgraph.Graph, sp *Span) [32]byte {
	h.Reset()
	h.Write(sp.Hash[:])
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wInt(int64(s.Opts.MaxComponent))
	for id := sp.Lo; id < sp.Hi; id++ {
		info := s.InfoFor(id)
		if info == nil {
			wInt(-1)
			continue
		}
		wInt(int64(info.Roles))
		wInt(int64(len(info.RepIDs)))
		for _, sym := range info.RepIDs {
			for _, role := range propgraph.Roles() {
				wInt(int64(s.VarIDSym(sym, role)))
			}
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// buildFlowRange is pass 4 over events [lo, hi), which must be closed
// under edges (spansClosed): the Fig. 4 patterns enumerated by forward
// reachability inside each weakly connected component. Components are
// bucketed with a counting sort; IDs are assigned in discovery order and
// events scanned in increasing ID order, so concatenating ranges in span
// order reproduces the full-range constraint stream byte for byte.
func (s *System) buildFlowRange(g *propgraph.Graph, lo, hi int, sc *flowScratch) {
	n := hi - lo
	if n < 2 {
		return
	}
	comp, ncomp := weakComponentsRange(g, lo, hi)
	counts := make([]int, ncomp)
	for _, c := range comp {
		counts[c]++
	}
	starts := make([]int, ncomp+1)
	for c, k := range counts {
		starts[c+1] = starts[c] + k
	}
	copy(counts, starts[:ncomp])
	byComp := make([]int, n)
	for id := lo; id < hi; id++ {
		c := comp[id-lo]
		byComp[counts[c]] = id
		counts[c]++
	}
	// Each event's index inside its component bucket. Edges never cross
	// weak components, so buildComponent can translate any neighbor
	// through this array instead of a per-component map.
	for k, id := range byComp {
		sc.localOf[id] = int32(k - starts[comp[id-lo]])
	}
	for c := 0; c < ncomp; c++ {
		events := byComp[starts[c]:starts[c+1]]
		if len(events) < 2 {
			continue
		}
		if len(events) > s.Opts.MaxComponent {
			s.SkippedComponents++
			continue
		}
		s.buildComponent(g, events, sc)
	}
}

// weakComponentsRange labels each event in [lo, hi) with a weakly
// connected component ID (comp is indexed by id-lo) and returns the
// labels and the component count. Neighbors are assumed in range (the
// caller validated closure).
func weakComponentsRange(g *propgraph.Graph, lo, hi int) ([]int, int) {
	n := hi - lo
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int
	for start := lo; start < hi; start++ {
		if comp[start-lo] >= 0 {
			continue
		}
		comp[start-lo] = next
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.Succs(id) {
				if comp[nb-lo] < 0 {
					comp[nb-lo] = next
					stack = append(stack, nb)
				}
			}
			for _, nb := range g.Preds(id) {
				if comp[nb-lo] < 0 {
					comp[nb-lo] = next
					stack = append(stack, nb)
				}
			}
		}
		next++
	}
	return comp, next
}
