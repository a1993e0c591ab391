package lp

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file holds the compiled solver kernel. compile flattens a Problem's
// constraint slices into CSR-style index/coefficient arrays and precomputes
// the free-variable mask and pinned-L1 constant; the per-epoch work is then
// a single fused pass that yields the hinge violations needed for the
// gradient, the objective of the previous epoch's iterate, and the
// convergence statistics — where the interpreted loop in the seed solver
// walked every constraint's term lists twice per epoch (once for the
// gradient, once more to recompute the objective from scratch) and paid a
// map lookup per variable for the L1 term.
//
// Determinism contract: Minimize is bit-for-bit reproducible at every
// shard count. Violations are computed independently per constraint, so
// sharding the pass cannot change them; all floating-point reductions
// (hinge fold, L1 fold, gradient scatter, Adam update) run sequentially
// in a fixed order over those per-constraint results. Gradients and
// violations are additionally bit-identical to the pre-kernel
// implementation (kept as the test reference minimizeReference in
// reference_test.go); objectives agree to ulps, the L1 term being folded
// through the pinned-L1 constant instead of a per-variable scan.

// kernelChunk is the fixed number of constraints one pass task covers.
// Chunk boundaries depend only on the problem size — never on
// Options.Shards — so the work decomposition is stable across shard
// counts; since chunks share no outputs it only affects scheduling.
const kernelChunk = 2048

// kernel is the compiled form of a Problem.
type kernel struct {
	nVars  int
	nCons  int
	c      float64
	lambda float64

	// CSR constraint storage: constraint i owns
	// termVar/termCoef[termStart[i]:termStart[i+1]], LHS terms first and
	// RHS terms after with negated coefficients, so one fused dot product
	// (minus C) reproduces Constraint.Violation exactly.
	termStart []int32
	termVar   []int32
	termCoef  []float64

	masks *problemMask // free mask, pinned indices, pinned-L1 constant

	// viol[i] caches L_i − R_i − C from the last pass; the scatter and the
	// hinge fold both reuse it instead of re-walking the term lists.
	viol []float64
}

// compile flattens p into CSR arrays. It is cheap (one walk over the
// terms) relative to even a single solver epoch.
func compile(p *Problem) *kernel {
	nTerms := 0
	for i := range p.Constraints {
		nTerms += len(p.Constraints[i].LHS) + len(p.Constraints[i].RHS)
	}
	k := &kernel{
		nVars:     p.NumVars,
		nCons:     len(p.Constraints),
		c:         p.C,
		lambda:    p.Lambda,
		termStart: make([]int32, len(p.Constraints)+1),
		termVar:   make([]int32, 0, nTerms),
		termCoef:  make([]float64, 0, nTerms),
		masks:     p.masks(),
		viol:      make([]float64, len(p.Constraints)),
	}
	for i := range p.Constraints {
		c := &p.Constraints[i]
		for _, t := range c.LHS {
			k.termVar = append(k.termVar, int32(t.Var))
			k.termCoef = append(k.termCoef, t.Coef)
		}
		for _, t := range c.RHS {
			k.termVar = append(k.termVar, int32(t.Var))
			k.termCoef = append(k.termCoef, -t.Coef)
		}
		k.termStart[i+1] = int32(len(k.termVar))
	}
	return k
}

// pin resets the known variables to their pinned values.
func (k *kernel) pin(x []float64) {
	for i, v := range k.masks.pinIdx {
		x[v] = k.masks.pinVal[i]
	}
}

// passChunk computes viol[i] for the constraints of one chunk.
func (k *kernel) passChunk(ci int, x []float64) {
	lo := ci * kernelChunk
	hi := lo + kernelChunk
	if hi > k.nCons {
		hi = k.nCons
	}
	termVar, termCoef := k.termVar, k.termCoef
	for i := lo; i < hi; i++ {
		v := -k.c
		for t := k.termStart[i]; t < k.termStart[i+1]; t++ {
			v += termCoef[t] * x[termVar[t]]
		}
		k.viol[i] = v
	}
}

// pass recomputes every constraint's violation at x, sharding the
// constraint loop over up to `shards` goroutines, and returns the total
// hinge violation. The fold over per-constraint values runs sequentially
// in constraint order, so the result does not depend on shards.
func (k *kernel) pass(x []float64, shards int) float64 {
	nChunks := (k.nCons + kernelChunk - 1) / kernelChunk
	if shards > nChunks {
		shards = nChunks
	}
	if shards <= 1 {
		for ci := 0; ci < nChunks; ci++ {
			k.passChunk(ci, x)
		}
	} else {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < shards; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					ci := int(next.Add(1))
					if ci >= nChunks {
						return
					}
					k.passChunk(ci, x)
				}
			}()
		}
		wg.Wait()
	}
	hinge := 0.0
	for _, v := range k.viol {
		if v > 0 {
			hinge += v
		}
	}
	return hinge
}

// objectiveAt adds the λ-weighted free-variable L1 term onto a hinge
// total. Inside the solver x always carries its pinned values, so the
// free-variable L1 mass is the branchless full sum minus the precomputed
// pinned-L1 constant — no per-variable mask test or map lookup.
func (k *kernel) objectiveAt(hinge float64, x []float64) float64 {
	sum := 0.0
	for _, xi := range x {
		sum += xi
	}
	return hinge + k.lambda*sum - k.masks.pinnedL1
}

// scatter rebuilds the subgradient from the violations cached by the last
// pass. It always runs sequentially in constraint order, which keeps the
// gradient bit-identical at every shard count (and to the seed solver).
func (k *kernel) scatter(grad []float64) {
	free := k.masks.free
	for i := range grad {
		if free[i] {
			grad[i] = k.lambda
		} else {
			grad[i] = 0
		}
	}
	termVar, termCoef := k.termVar, k.termCoef
	for i := 0; i < k.nCons; i++ {
		if k.viol[i] <= 0 {
			continue
		}
		for t := k.termStart[i]; t < k.termStart[i+1]; t++ {
			grad[termVar[t]] += termCoef[t]
		}
	}
}

// minimizeKernel is Minimize's engine: compiled constraints, one fused
// pass per epoch, and the previous epoch's objective reused instead of
// recomputed. The iterate/best/stopping bookkeeping is re-timed — epoch
// t's post-update objective is evaluated by epoch t+1's pass (or by one
// trailing pass after the loop) — but the computed sequence of iterates,
// objectives, and stopping decisions is exactly that of minimizeReference.
func minimizeKernel(p *Problem, opts Options) *Result {
	k := compile(p)
	n := p.NumVars
	x := make([]float64, n)
	k.pin(x)

	if opts.Iterations < 1 {
		hinge := k.pass(x, opts.Shards)
		return &Result{X: x, Objective: k.objectiveAt(hinge, x), Violation: hinge, Iterations: 0}
	}

	grad := make([]float64, n)
	m := make([]float64, n)
	vv := make([]float64, n)
	free := k.masks.free

	best := append([]float64(nil), x...)
	bestObj := math.Inf(1)
	prevObj := math.Inf(1)
	iters := 0
	tel := newEpochTelemetry(opts)
	// Telemetry for the epoch whose objective is still pending.
	var gradSq, stepSq float64
	pending := false

	for t := 1; t <= opts.Iterations; t++ {
		// One fused pass: the violations drive this epoch's gradient AND
		// deliver the objective of the previous epoch's iterate.
		hinge := k.pass(x, opts.Shards)
		if t == 1 {
			bestObj = k.objectiveAt(hinge, x) // objective of the start point
		} else {
			obj := k.objectiveAt(hinge, x)
			if obj < bestObj {
				bestObj = obj
				copy(best, x)
			}
			tel.emitPrecomputed(t-1, obj, bestObj, hinge, gradSq, stepSq)
			pending = false
			if math.Abs(prevObj-obj) < opts.Tolerance {
				break
			}
			prevObj = obj
		}

		k.scatter(grad)
		// Adam update with bias correction, then projection. Pinned
		// variables are never touched, so no re-pinning is needed.
		b1t := 1 - math.Pow(opts.Beta1, float64(t))
		b2t := 1 - math.Pow(opts.Beta2, float64(t))
		gradSq, stepSq = 0, 0
		for i := 0; i < n; i++ {
			if !free[i] {
				continue
			}
			g := grad[i]
			m[i] = opts.Beta1*m[i] + (1-opts.Beta1)*g
			vv[i] = opts.Beta2*vv[i] + (1-opts.Beta2)*g*g
			mHat := m[i] / b1t
			vHat := vv[i] / b2t
			old := x[i]
			x[i] -= opts.LearnRate * mHat / (math.Sqrt(vHat) + opts.Eps)
			if x[i] < 0 {
				x[i] = 0
			} else if x[i] > 1 {
				x[i] = 1
			}
			if tel != nil {
				gradSq += g * g
				d := x[i] - old
				stepSq += d * d
			}
		}
		iters = t
		pending = true
	}

	if pending {
		// The loop exhausted its budget with the last update unevaluated:
		// one trailing violation-only pass settles its objective.
		hinge := k.pass(x, opts.Shards)
		obj := k.objectiveAt(hinge, x)
		if obj < bestObj {
			bestObj = obj
			copy(best, x)
		}
		tel.emitPrecomputed(iters, obj, bestObj, hinge, gradSq, stepSq)
	}
	return &Result{
		X:          best,
		Objective:  bestObj,
		Violation:  k.pass(best, opts.Shards),
		Iterations: iters,
	}
}
