package constraints

import (
	"fmt"
	"reflect"
	"testing"

	"seldon/internal/lp"
	"seldon/internal/propgraph"
	"seldon/internal/pytoken"
	"seldon/internal/spec"
)

// referenceBuild is the original string-keyed constraint build, kept as a
// test oracle and benchmark baseline for the interned path: pass 1 counts
// representation frequencies in a map[string]int, pass 2 filters with
// per-occurrence spec lookups (glob blacklist matched per occurrence),
// pass 3 assigns variables through a map[Variable]int. The flow pass is
// shared — it operates on the assembled System either way. reps and symOf
// stand in for the strings the events used to carry by value; callers
// precompute them (outside the timer in benchmarks).
func referenceBuild(g *propgraph.Graph, reps [][]string, symOf map[string]propgraph.Sym,
	seed *spec.Spec, opts Options) *System {
	opts = opts.WithDefaults()
	s := &System{
		Syms:        g.Syms,
		infoByEvent: make([]int, len(g.Events)),
		Opts:        opts,
	}

	// Pass 1: string-keyed rep frequencies, one count per occurrence.
	repCount := make(map[string]int)
	for _, rs := range reps {
		for _, r := range rs {
			repCount[r]++
		}
	}

	// Pass 2: candidate filtering with per-occurrence seed lookups.
	for i := range s.infoByEvent {
		s.infoByEvent[i] = -1
	}
	for id, e := range g.Events {
		var kept []string
		for _, r := range reps[id] {
			if seed.Blacklisted(r) {
				continue
			}
			if repCount[r] >= opts.BackoffCutoff || seed.RolesOf(r) != 0 {
				kept = append(kept, r)
			}
		}
		if len(kept) == 0 {
			continue
		}
		ids := make([]propgraph.Sym, len(kept))
		for i, r := range kept {
			ids[i] = symOf[r]
		}
		s.infoByEvent[id] = len(s.EventInfos)
		s.EventInfos = append(s.EventInfos, EventInfo{EventID: e.ID, RepIDs: ids, Roles: e.Roles})
	}

	// Pass 3: first-seen variable assignment through a string-keyed map.
	varIndex := make(map[Variable]int)
	for i := range s.EventInfos {
		info := &s.EventInfos[i]
		for _, role := range propgraph.Roles() {
			if !info.Roles.Has(role) {
				continue
			}
			for _, sym := range info.RepIDs {
				v := Variable{Rep: g.Syms.Str(sym), Role: role}
				if _, ok := varIndex[v]; !ok {
					varIndex[v] = len(s.Vars)
					s.Vars = append(s.Vars, v)
					s.varSyms = append(s.varSyms, sym)
				}
			}
		}
	}
	// Dense lookup table for the shared flow pass.
	s.varIDs = make([]int32, g.Syms.Len()*int(propgraph.NumRoles))
	for i := range s.varIDs {
		s.varIDs[i] = -1
	}
	for i, v := range s.Vars {
		s.varIDs[int(s.varSyms[i])*int(propgraph.NumRoles)+int(v.Role)] = int32(i)
	}

	known := make(map[int]float64)
	for i, v := range s.Vars {
		roles := seed.RolesOf(v.Rep)
		if roles == 0 {
			continue
		}
		if roles.Has(v.Role) {
			known[i] = 1
		} else {
			known[i] = 0
		}
	}
	s.Problem = &lp.Problem{NumVars: len(s.Vars), C: opts.C, Lambda: opts.Lambda, Known: known}
	s.buildFlowRange(g, 0, len(g.Events), &flowScratch{localOf: make([]int32, len(g.Events))})
	return s
}

// prepReference materializes what the pre-interning events carried by
// value: per-event representation strings and the string → symbol map.
func prepReference(g *propgraph.Graph) ([][]string, map[string]propgraph.Sym) {
	reps := make([][]string, len(g.Events))
	for id, e := range g.Events {
		reps[id] = e.Reps()
	}
	symOf := make(map[string]propgraph.Sym)
	for i, str := range g.Syms.Strings() {
		symOf[str] = propgraph.Sym(i)
	}
	return reps, symOf
}

// corpusGraph unions nFiles synthetic per-file graphs with overlapping
// representations (shared APIs across files, per-file locals below the
// cutoff, blacklisted reps, multi-level backoff chains).
func corpusGraph(nFiles, eventsPerFile int) *propgraph.Graph {
	graphs := make([]*propgraph.Graph, nFiles)
	kinds := []propgraph.EventKind{propgraph.KindCall, propgraph.KindRead, propgraph.KindParam}
	for f := range graphs {
		g := propgraph.New()
		for i := 0; i < eventsPerFile; i++ {
			var reps []string
			switch i % 4 {
			case 0: // shared API with backoff, frequent across files
				reps = []string{fmt.Sprintf("pkg.mod%d.api%d()", i%7, i%11),
					fmt.Sprintf("mod%d.api%d()", i%7, i%11),
					fmt.Sprintf("api%d()", i%11)}
			case 1: // per-file local, below any cutoff > 1
				reps = []string{fmt.Sprintf("file%d.local%d()", f, i)}
			case 2: // blacklist bait
				reps = []string{fmt.Sprintf("obj%d.append()", i%5), "append()"}
			default: // frequent single rep
				reps = []string{fmt.Sprintf("shared.helper%d()", i%3)}
			}
			g.AddEvent(kinds[i%len(kinds)], fmt.Sprintf("f%d.py", f),
				pytoken.Pos{Line: i + 1}, reps)
		}
		// Short flow chains: real corpus graphs decompose into many small
		// weak components (MaxComponent bounds the rest), so the flow pass
		// stays proportionate and the rep-handling passes dominate.
		for i := 0; i+1 < eventsPerFile; i++ {
			if i%16 < 3 {
				g.AddEdge(i, i+1)
			}
		}
		graphs[f] = g
	}
	return propgraph.Union(graphs...)
}

func corpusSeed() *spec.Spec {
	seed := spec.New()
	seed.Add(propgraph.Source, "pkg.mod0.api0()")
	seed.Add(propgraph.Sanitizer, "shared.helper1()")
	seed.Add(propgraph.Sink, "pkg.mod3.api7()")
	seed.Add(propgraph.Sink, "file0.local5()") // seeded rep below the cutoff
	seed.AddBlacklist("*.append()")
	seed.AddBlacklist("append()")
	return seed
}

// assertSystemsEqual compares everything downstream consumers read from a
// System (the Opts field is allowed to differ, e.g. in Workers).
func assertSystemsEqual(t *testing.T, label string, got, want *System) {
	t.Helper()
	if !reflect.DeepEqual(got.Vars, want.Vars) {
		t.Fatalf("%s: Vars differ: %d vs %d entries", label, len(got.Vars), len(want.Vars))
	}
	if !reflect.DeepEqual(got.varSyms, want.varSyms) {
		t.Fatalf("%s: varSyms differ", label)
	}
	if !reflect.DeepEqual(got.varIDs, want.varIDs) {
		t.Fatalf("%s: varIDs differ", label)
	}
	if !reflect.DeepEqual(got.EventInfos, want.EventInfos) {
		t.Fatalf("%s: EventInfos differ: %d vs %d", label, len(got.EventInfos), len(want.EventInfos))
	}
	if !reflect.DeepEqual(got.infoByEvent, want.infoByEvent) {
		t.Fatalf("%s: infoByEvent differs", label)
	}
	if !reflect.DeepEqual(got.Problem, want.Problem) {
		t.Fatalf("%s: Problem differs (constraints %d vs %d)",
			label, len(got.Problem.Constraints), len(want.Problem.Constraints))
	}
	if got.CountA != want.CountA || got.CountB != want.CountB || got.CountC != want.CountC ||
		got.SkippedComponents != want.SkippedComponents {
		t.Fatalf("%s: counts differ: %d/%d/%d/%d vs %d/%d/%d/%d", label,
			got.CountA, got.CountB, got.CountC, got.SkippedComponents,
			want.CountA, want.CountB, want.CountC, want.SkippedComponents)
	}
}

// TestBuildMatchesStringReference pins the tentpole requirement: the
// interned, sharded Build must produce a constraint system identical to
// the original string-keyed implementation, at every worker count.
func TestBuildMatchesStringReference(t *testing.T) {
	g := corpusGraph(6, 40)
	seed := corpusSeed()
	reps, symOf := prepReference(g)
	for _, cutoff := range []int{1, 2, 5} {
		want := referenceBuild(g, reps, symOf, seed, Options{BackoffCutoff: cutoff})
		if cutoff == 1 && len(want.Problem.Constraints) == 0 {
			t.Fatal("fixture generates no flow constraints")
		}
		for _, workers := range []int{1, 4} {
			got := Build(g, seed, Options{BackoffCutoff: cutoff, Workers: workers})
			assertSystemsEqual(t, fmt.Sprintf("cutoff=%d workers=%d", cutoff, workers), got, want)
		}
	}
}

// TestBuildWorkersBitwiseIdentical compares sharded builds against the
// sequential one over a larger graph, including Workers: 0 (GOMAXPROCS).
func TestBuildWorkersBitwiseIdentical(t *testing.T) {
	g := corpusGraph(10, 60)
	seed := corpusSeed()
	want := Build(g, seed, Options{Workers: 1})
	for _, workers := range []int{2, 3, 4, 7, 0} {
		got := Build(g, seed, Options{Workers: workers})
		assertSystemsEqual(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestBuildCountsRepOccurrences pins the pass-1 frequency semantics: a
// representation appearing at several backoff levels of ONE event counts
// once per occurrence, not once per event (class base chains can repeat a
// name). With cutoff 2, a single event repeating "dup()" keeps it; a
// single "once()" occurrence is cut.
func TestBuildCountsRepOccurrences(t *testing.T) {
	g := propgraph.New()
	g.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{Line: 1},
		[]string{"dup()", "dup()"})
	g.AddEvent(propgraph.KindCall, "t.py", pytoken.Pos{Line: 2},
		[]string{"once()"})
	sys := Build(g, spec.New(), Options{BackoffCutoff: 2})
	if sys.VarID("dup()", propgraph.Source) < 0 {
		t.Error("rep repeated within one event must count per occurrence and survive")
	}
	if sys.VarID("once()", propgraph.Source) >= 0 {
		t.Error("single occurrence must be cut off")
	}
	// Both surviving occurrences stay in the backoff list (they average).
	if info := sys.InfoFor(0); info == nil || len(info.RepIDs) != 2 {
		t.Errorf("event 0 info = %+v, want 2 kept occurrences", sys.InfoFor(0))
	}
}

// TestBuildAllocBudget pins the dense-array allocation strategy on a
// ~1k-event corpus graph: the build must not allocate per occurrence.
func TestBuildAllocBudget(t *testing.T) {
	g := corpusGraph(8, 125)
	if len(g.Events) != 1000 {
		t.Fatalf("fixture has %d events", len(g.Events))
	}
	seed := corpusSeed()
	opts := Options{Workers: 1}
	allocs := testing.AllocsPerRun(10, func() { Build(g, seed, opts) })
	// Passes 1-3 contribute only fixed arrays plus the SymIndex, and the
	// flow pass reuses scratch across components, so the total must stay
	// far below the per-occurrence/per-event counts of the string path
	// (referenceBuild measures ~2100 allocs/run on this fixture; the
	// interned build ~600).
	if budget := 1000.0; allocs > budget {
		t.Errorf("Build allocs/run = %.0f, budget %.0f", allocs, budget)
	}
}

func BenchmarkConstraintsBuild(b *testing.B) {
	g := corpusGraph(8, 125)
	seed := corpusSeed()
	opts := Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, seed, opts)
	}
}

func BenchmarkConstraintsBuildReference(b *testing.B) {
	g := corpusGraph(8, 125)
	seed := corpusSeed()
	// The string path stored representations by value on the events;
	// materialize them outside the timer so the baseline is not charged
	// for the conversion.
	reps, symOf := prepReference(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceBuild(g, reps, symOf, seed, Options{})
	}
}
