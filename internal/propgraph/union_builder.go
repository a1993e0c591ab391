package propgraph

// UnionBuilder computes a disjoint union one input at a time, and the
// running union is available after every Add. Union is a loop over it;
// streaming consumers (a coordinator folding shard slices into the global
// graph as each one arrives) use it directly.
//
// Symbols are remapped from each input's table into the union's global
// table through a per-input translation array (each distinct string is
// hashed once per input, occurrences are pure integer indexing), and the
// global IDs are assigned in first-seen order over the inputs — so a
// sorted input order yields a deterministic global table.
//
// Adjacency is bulk-copied: the inputs are well-formed graphs (edges
// deduplicated, no self-loops) and the union is disjoint, so the per-edge
// AddEdge duplicate scans are unnecessary. Each Add carves the input's
// events, symbol lists and adjacency from one arena per field, and fills
// predecessor lists in ascending-source order — the order an
// AddEdge-based union produces — so the result is byte-identical to it.
type UnionBuilder struct {
	g *Graph
}

// NewUnionBuilder returns a builder holding an empty union.
func NewUnionBuilder() *UnionBuilder {
	return &UnionBuilder{g: &Graph{Syms: NewInterner()}}
}

// Add appends src to the union. src is not modified and must not change
// afterwards (its adjacency is copied, its symbol table only read).
func (b *UnionBuilder) Add(src *Graph) {
	g := b.g
	base := len(g.Events)
	xlat := g.Syms.TranslateFrom(src.Syms)

	totalReps := 0
	for _, e := range src.Events {
		totalReps += len(e.RepIDs)
	}
	evArena := make([]Event, len(src.Events))
	repArena := make([]Sym, 0, totalReps)
	for _, e := range src.Events {
		ne := &evArena[e.ID]
		*ne = *e
		ne.ID = base + e.ID
		ne.syms = g.Syms
		if len(e.RepIDs) > 0 {
			start := len(repArena)
			for _, s := range e.RepIDs {
				repArena = append(repArena, xlat[s])
			}
			ne.RepIDs = repArena[start:len(repArena):len(repArena)]
		}
		g.Events = append(g.Events, ne)
	}

	g.succs = append(g.succs, make([][]int, len(src.Events))...)
	g.preds = append(g.preds, make([][]int, len(src.Events))...)
	succArena := make([]int, 0, src.NumEdges())
	predLen := make([]int, len(src.Events))
	for s, ss := range src.succs {
		if len(ss) == 0 {
			continue
		}
		start := len(succArena)
		for _, dst := range ss {
			succArena = append(succArena, base+dst)
			predLen[dst]++
		}
		g.succs[base+s] = succArena[start:len(succArena):len(succArena)]
	}
	totalPreds := 0
	for _, n := range predLen {
		totalPreds += n
	}
	predArena := make([]int, totalPreds)
	off := 0
	for i, n := range predLen {
		if n > 0 {
			g.preds[base+i] = predArena[off : off : off+n]
			off += n
		}
	}
	for s, ss := range src.succs {
		for _, dst := range ss {
			g.preds[base+dst] = append(g.preds[base+dst], base+s)
		}
	}
	g.copyEdgeArgs(src, base)
}

// Graph returns the union built so far. The builder retains it; calling
// Add again grows the same graph.
func (b *UnionBuilder) Graph() *Graph { return b.g }
