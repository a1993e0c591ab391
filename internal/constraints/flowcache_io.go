package constraints

import (
	"fmt"
	"os"
	"sort"

	"seldon/internal/envelope"
	"seldon/internal/fpcache"
	"seldon/internal/lp"
)

// FlowCache persistence: the per-file flow-constraint blocks survive the
// process, so a fresh coordinator (or a new -session-dir run over the
// same corpus) reuses pass-4 work instead of re-deriving it. The file is
// an envelope (internal/envelope) with magic "SFLC" whose payload is the
// format version, the versions and knobs the contents depend on, and a
// deterministic body; like fpcache, loading is infallible: a missing,
// truncated, corrupted, stale-version, or knob-skewed file loads as an
// empty cache (every span then misses and rebuilds, and the next Save
// repairs the file). A wrong reuse is impossible even without the
// header checks, because each block is only consulted when its support
// fingerprint matches (spanFingerprint covers the graph content, the
// component bound, and every global variable ID the block's constraints
// embed) — the header checks just turn a guaranteed fingerprint miss
// into a cheap whole-file miss.

const (
	flowCacheMagic   = "SFLC"
	flowCacheVersion = 1

	// The smallest encodings of a block (name length, fingerprint, four
	// counts, constraint count), a constraint (two term counts) and a
	// term (var, coef), in bytes: what LoadFlowCache bounds their
	// declared counts by.
	minBlockBytes      = 8 + 32 + 4*8 + 8
	minConstraintBytes = 2 * 8
	minTermBytes       = 2 * 8
)

// Save writes the cache to path atomically (envelope.WriteFile). The
// body is deterministic: blocks are emitted in sorted file order.
func (c *FlowCache) Save(path string, opts Options) error {
	opts = opts.WithDefaults()
	files := make([]string, 0, c.Len())
	for f := range c.blocks {
		files = append(files, f)
	}
	sort.Strings(files)

	b := make([]byte, 0, 4096)
	b = append(b, flowCacheMagic...)
	b = envelope.AppendU64(b, flowCacheVersion)
	b = envelope.AppendString64(b, fpcache.AnalyzerVersion)
	b = envelope.AppendF64(b, opts.C)
	b = envelope.AppendF64(b, opts.Lambda)
	b = envelope.AppendU64(b, uint64(opts.BackoffCutoff))
	b = envelope.AppendU64(b, uint64(opts.MaxComponent))
	b = envelope.AppendU64(b, uint64(len(files)))
	appendTerms := func(b []byte, ts []lp.Term) []byte {
		b = envelope.AppendU64(b, uint64(len(ts)))
		for _, t := range ts {
			b = envelope.AppendU64(b, uint64(t.Var))
			b = envelope.AppendF64(b, t.Coef)
		}
		return b
	}
	for _, f := range files {
		blk := c.blocks[f]
		b = envelope.AppendString64(b, f)
		b = append(b, blk.fp[:]...)
		b = envelope.AppendU64(b, uint64(blk.countA))
		b = envelope.AppendU64(b, uint64(blk.countB))
		b = envelope.AppendU64(b, uint64(blk.countC))
		b = envelope.AppendU64(b, uint64(blk.skipped))
		b = envelope.AppendU64(b, uint64(len(blk.cons)))
		for i := range blk.cons {
			b = appendTerms(b, blk.cons[i].LHS)
			b = appendTerms(b, blk.cons[i].RHS)
		}
	}
	if err := envelope.WriteFile(path, envelope.Seal(b)); err != nil {
		return fmt.Errorf("flowcache: %w", err)
	}
	return nil
}

// LoadFlowCache reads a persisted cache. It never errors: any problem —
// absent file, bad magic or checksum, a format or analyzer version from
// another build, knobs that differ from opts — yields a fresh empty
// cache and ok=false. opts must be the Options the coming builds will
// use; a knob change invalidates the whole file (the conservative
// reading of "the constraints may depend on it").
func LoadFlowCache(path string, opts Options) (*FlowCache, bool) {
	opts = opts.WithDefaults()
	data, err := os.ReadFile(path)
	if err != nil {
		return NewFlowCache(), false
	}
	r, err := envelope.Open(data, flowCacheMagic)
	if err != nil {
		return NewFlowCache(), false
	}
	if r.U64() != flowCacheVersion || r.String64() != fpcache.AnalyzerVersion {
		return NewFlowCache(), false
	}
	if r.F64() != opts.C || r.F64() != opts.Lambda ||
		r.U64() != uint64(opts.BackoffCutoff) || r.U64() != uint64(opts.MaxComponent) {
		return NewFlowCache(), false
	}
	readTerms := func() []lp.Term {
		ts := make([]lp.Term, r.Count64("term", minTermBytes))
		for k := range ts {
			ts[k] = lp.Term{Var: int(r.U64()), Coef: r.F64()}
		}
		return ts
	}
	c := NewFlowCache()
	n := r.Count64("block", minBlockBytes)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := r.String64()
		blk := &flowBlock{}
		copy(blk.fp[:], r.Fixed(32))
		blk.countA = int(r.U64())
		blk.countB = int(r.U64())
		blk.countC = int(r.U64())
		blk.skipped = int(r.U64())
		blk.cons = make([]lp.Constraint, r.Count64("constraint", minConstraintBytes))
		for j := range blk.cons {
			blk.cons[j].LHS = readTerms()
			blk.cons[j].RHS = readTerms()
		}
		c.blocks[f] = blk
	}
	if r.Err() != nil || len(r.Rest()) != 0 {
		return NewFlowCache(), false
	}
	return c, true
}
