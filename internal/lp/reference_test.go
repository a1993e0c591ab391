package lp

import (
	"math"
	"time"
)

// minimizeReference is the pre-kernel solver loop, retained verbatim as
// the behavioural baseline: the equivalence tests check that the compiled
// kernel of kernel.go walks the identical iterate sequence, and the
// benchmarks report the kernel's per-epoch speedup against it. It walks
// every constraint's term lists twice per epoch (gradient pass plus a
// full objective recomputation) and pays a map lookup per variable for
// pinning — exactly the costs compile() removes.
func minimizeReference(p *Problem, opts Options) *Result {
	opts = opts.withDefaults()
	n := p.NumVars
	x := make([]float64, n)
	pin := func(xs []float64) {
		for v, val := range p.Known {
			if v >= 0 && v < n {
				xs[v] = val
			}
		}
	}
	pin(x)

	grad := make([]float64, n)
	m := make([]float64, n)
	vv := make([]float64, n)
	free := make([]bool, n)
	for i := range free {
		_, pinned := p.Known[i]
		free[i] = !pinned
	}

	best := append([]float64(nil), x...)
	bestObj := p.Objective(x)
	prevObj := math.Inf(1)
	iters := 0
	tel := newEpochTelemetry(opts)
	prevX := append([]float64(nil), x...)

	for t := 1; t <= opts.Iterations; t++ {
		iters = t
		// Subgradient of the hinge terms.
		for i := range grad {
			if free[i] {
				grad[i] = p.Lambda
			} else {
				grad[i] = 0
			}
		}
		for i := range p.Constraints {
			c := &p.Constraints[i]
			if c.Violation(x, p.C) <= 0 {
				continue
			}
			for _, term := range c.LHS {
				grad[term.Var] += term.Coef
			}
			for _, term := range c.RHS {
				grad[term.Var] -= term.Coef
			}
		}
		// Adam update with bias correction, then projection.
		b1t := 1 - math.Pow(opts.Beta1, float64(t))
		b2t := 1 - math.Pow(opts.Beta2, float64(t))
		for i := 0; i < n; i++ {
			if !free[i] {
				continue
			}
			g := grad[i]
			m[i] = opts.Beta1*m[i] + (1-opts.Beta1)*g
			vv[i] = opts.Beta2*vv[i] + (1-opts.Beta2)*g*g
			mHat := m[i] / b1t
			vHat := vv[i] / b2t
			x[i] -= opts.LearnRate * mHat / (math.Sqrt(vHat) + opts.Eps)
			if x[i] < 0 {
				x[i] = 0
			} else if x[i] > 1 {
				x[i] = 1
			}
		}
		pin(x)

		obj := p.Objective(x)
		if obj < bestObj {
			bestObj = obj
			copy(best, x)
		}
		tel.emitReference(p, t, x, prevX, grad, free, obj, bestObj)
		if math.Abs(prevObj-obj) < opts.Tolerance {
			break
		}
		prevObj = obj
	}
	return &Result{
		X:          best,
		Objective:  bestObj,
		Violation:  p.TotalViolation(best),
		Iterations: iters,
	}
}

// emitReference computes the derived quantities and invokes the hook.
// obj and best are the caller's already-computed objective values; the
// hinge part is re-evaluated so the L1 term falls out by subtraction,
// and the step is measured against prevX, which it then advances to x.
func (et *epochTelemetry) emitReference(p *Problem, epoch int, x, prevX, grad []float64, free []bool, obj, best float64) {
	if et == nil {
		return
	}
	hinge := p.TotalViolation(x)
	gradSq, stepSq := 0.0, 0.0
	for i := range x {
		if !free[i] {
			continue
		}
		gradSq += grad[i] * grad[i]
		d := x[i] - prevX[i]
		stepSq += d * d
	}
	copy(prevX, x)
	et.hook(EpochStats{
		Epoch:     epoch,
		Objective: obj,
		Best:      best,
		Violation: hinge,
		L1:        obj - hinge,
		GradNorm:  math.Sqrt(gradSq),
		StepSize:  math.Sqrt(stepSq),
		Elapsed:   time.Since(et.start),
	})
}
