package propgraph

import (
	"encoding/binary"
	"fmt"
	"sort"

	"seldon/internal/envelope"
	"seldon/internal/pytoken"
)

// The binary codec is the persistence format of the incremental
// front-end (internal/fpcache): a compact, self-delimiting encoding of a
// propagation graph whose bytes are a pure function of the graph — no
// map is iterated unordered, so identical graphs always encode to
// identical bytes and can be content-addressed. It captures everything
// AnalyzeModule produces: events (kind, file, position, representations,
// candidate roles), the successor adjacency in insertion order, and the
// argument-position edge labels in packed-key order.
//
// Version 2 writes strings once: the graph's symbol table and a
// first-seen table of file names lead the encoding, and each event then
// references representations and its file by integer index. A corpus
// file's graph repeats its own name in every event and shares
// representation strings across events, so entries shrink and decoding
// rebuilds each string exactly once. Version-1 entries fail to decode,
// which the cache treats as a miss (re-analyze + overwrite), never an
// error.
//
// Predecessor lists are not stored: they are rebuilt in ascending-source
// order on decode, the same normal form propgraph.Union re-establishes
// for every downstream consumer, so a decoded graph is indistinguishable
// from a fresh one after the union every pipeline takes.

const (
	binaryTag     = 0x47 // 'G', leading byte of a graph section
	binaryVersion = 2

	// The smallest encodings of an event (kind, file, line, col, rep
	// count, roles) and of an edge-arg record (src, dst, arg count), in
	// bytes: what DecodeBinary bounds their declared counts by.
	minEventBytes   = 6
	minEdgeArgBytes = 3
)

// AppendBinary appends the graph's binary encoding to dst and returns
// the extended slice. The encoding is deterministic and self-delimiting
// (DecodeBinary knows where it ends).
func (g *Graph) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryTag, binaryVersion)

	// Symbol table, in table order (RepIDs index it directly).
	syms := g.Syms.Strings()
	dst = binary.AppendUvarint(dst, uint64(len(syms)))
	for _, s := range syms {
		dst = envelope.AppendString(dst, s)
	}

	// File-name table, first-seen order over events.
	fileIdx := make(map[string]int)
	var files []string
	for _, e := range g.Events {
		if _, ok := fileIdx[e.File]; !ok {
			fileIdx[e.File] = len(files)
			files = append(files, e.File)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(files)))
	for _, f := range files {
		dst = envelope.AppendString(dst, f)
	}

	dst = binary.AppendUvarint(dst, uint64(len(g.Events)))
	for _, e := range g.Events {
		dst = binary.AppendUvarint(dst, uint64(e.Kind))
		dst = binary.AppendUvarint(dst, uint64(fileIdx[e.File]))
		dst = binary.AppendVarint(dst, int64(e.Pos.Line))
		dst = binary.AppendVarint(dst, int64(e.Pos.Col))
		dst = binary.AppendUvarint(dst, uint64(len(e.RepIDs)))
		for _, r := range e.RepIDs {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		dst = append(dst, byte(e.Roles))
	}
	for src := range g.Events {
		ss := g.succs[src]
		dst = binary.AppendUvarint(dst, uint64(len(ss)))
		for _, d := range ss {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
	}
	keys := make([]int64, 0, len(g.edgeArgs))
	for k := range g.edgeArgs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		args := g.edgeArgs[k]
		dst = binary.AppendUvarint(dst, uint64(k>>32))
		dst = binary.AppendUvarint(dst, uint64(uint32(k)))
		dst = binary.AppendUvarint(dst, uint64(len(args)))
		for _, a := range args {
			dst = binary.AppendVarint(dst, int64(a))
		}
	}
	return dst
}

// DecodeBinary decodes a graph encoded by AppendBinary from the front of
// data, returning the graph and the unconsumed remainder. Malformed
// input — truncation, version mismatch, out-of-range edges or symbols —
// yields an error, never a partial graph.
func DecodeBinary(data []byte) (*Graph, []byte, error) {
	r := envelope.NewReader(data)
	if tag := r.Byte(); r.Err() == nil && tag != binaryTag {
		return nil, nil, fmt.Errorf("propgraph: binary: bad tag 0x%02x", tag)
	}
	if v := r.Byte(); r.Err() == nil && v != binaryVersion {
		return nil, nil, fmt.Errorf("propgraph: binary: unsupported version %d", v)
	}

	// Symbol table. Interning in stored order reproduces the IDs the
	// encoder wrote; a duplicate would silently shift every later ID, so
	// it is rejected as corruption.
	syms := NewInterner()
	numSyms := r.Count("symbol", 1)
	for i := 0; i < numSyms && r.Err() == nil; i++ {
		s := r.String()
		if r.Err() == nil && int(syms.Intern(s)) != i {
			r.Failf("duplicate symbol %q in table", s)
		}
	}

	// File-name table.
	var files []string
	if numFiles := r.Count("file", 1); numFiles > 0 {
		files = make([]string, 0, numFiles)
		for i := 0; i < numFiles && r.Err() == nil; i++ {
			files = append(files, r.String())
		}
	}

	numEvents := r.Count("event", minEventBytes)
	g := &Graph{
		Syms:   syms,
		Events: make([]*Event, 0, numEvents),
		succs:  make([][]int, numEvents),
		preds:  make([][]int, numEvents),
	}
	evArena := make([]Event, numEvents)
	for i := 0; i < numEvents && r.Err() == nil; i++ {
		kind := r.Uvarint()
		if r.Err() == nil && kind > uint64(KindParam) {
			r.Failf("event %d: bad kind %d", i, kind)
		}
		fileIdx := r.Uvarint()
		file := ""
		if r.Err() == nil {
			if fileIdx >= uint64(len(files)) {
				r.Failf("event %d: file index %d out of range", i, fileIdx)
			} else {
				file = files[fileIdx]
			}
		}
		e := &evArena[i]
		*e = Event{
			ID:   i,
			Kind: EventKind(kind),
			File: file,
			Pos:  pytoken.Pos{Line: int(r.Varint()), Col: int(r.Varint())},
			syms: syms,
		}
		if nreps := r.Count("rep", 1); nreps > 0 {
			e.RepIDs = make([]Sym, nreps)
			for j := range e.RepIDs {
				s := r.Uvarint()
				if r.Err() == nil && s >= uint64(numSyms) {
					r.Failf("event %d: symbol %d out of range", i, s)
				}
				e.RepIDs[j] = Sym(s)
			}
		}
		e.Roles = RoleSet(r.Byte())
		g.Events = append(g.Events, e)
	}

	// Successors in stored (insertion) order; predecessors rebuilt in
	// ascending-source order, Union's normal form.
	for src := 0; src < numEvents && r.Err() == nil; src++ {
		if n := r.Count("edge", 1); n > 0 {
			ss := make([]int, n)
			for j := range ss {
				dst := r.Uvarint()
				if r.Err() == nil && (dst >= uint64(numEvents) || int(dst) == src) {
					r.Failf("edge %d->%d out of range", src, dst)
				}
				ss[j] = int(dst)
			}
			g.succs[src] = ss
			for _, dst := range ss {
				if r.Err() == nil {
					g.preds[dst] = append(g.preds[dst], src)
				}
			}
		}
	}

	if nargs := r.Count("edge-arg", minEdgeArgBytes); nargs > 0 {
		g.edgeArgs = make(map[int64][]int, nargs)
		for i := 0; i < nargs && r.Err() == nil; i++ {
			src, dst := r.Uvarint(), r.Uvarint()
			if r.Err() == nil && (src >= uint64(numEvents) || dst >= uint64(numEvents)) {
				r.Failf("edge-arg %d->%d out of range", src, dst)
			}
			n := r.Count("arg", 1)
			args := make([]int, n)
			for j := range args {
				args[j] = int(r.Varint())
			}
			if r.Err() == nil {
				g.edgeArgs[edgeKey(int(src), int(dst))] = args
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("propgraph: binary: %w", err)
	}
	return g, r.Rest(), nil
}
