package fit

import "math"

// lmOptions tunes the Levenberg–Marquardt solver. The zero value is not
// usable; use defaultLMOptions.
type lmOptions struct {
	MaxIter   int
	InitDamp  float64
	TolGrad   float64
	TolStep   float64
	TolChiRel float64
}

func defaultLMOptions() lmOptions {
	return lmOptions{
		MaxIter:   200,
		InitDamp:  1e-3,
		TolGrad:   1e-12,
		TolStep:   1e-12,
		TolChiRel: 1e-12,
	}
}

// lmResiduals fills r with f(p, xs[i]) - ys[i], evaluating the model over
// all of xs in one evalAll call, and returns the sum of squares. It reports
// false, with an infinite sum, if f produced a NaN or an infinity.
func lmResiduals(evalAll func(p, xs, out []float64), xs, ys, p, r []float64) (float64, bool) {
	r = r[:len(xs)]
	evalAll(p, xs, r)
	chi := 0.0
	for i, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.Inf(1), false
		}
		r[i] = v - ys[i]
		chi += r[i] * r[i]
	}
	return chi, true
}

// LevenbergMarquardt minimizes sum_i (f(p, xs[i]) - ys[i])^2 over p starting
// from start, returning the refined parameters and the final sum of squared
// residuals. evalAll(p, xs, out) writes f(p, xs[i]) into out[i] for every i
// (Kernel.EvalAll); the solver calls it once per residual pass and once per
// Jacobian column. The Jacobian is computed by forward differences. The
// implementation is the classic damped normal-equations variant: solve
// (JᵀJ + λ diag(JᵀJ)) δ = -Jᵀr, accept steps that reduce χ², shrinking λ on
// success and growing it on failure.
func LevenbergMarquardt(evalAll func(p, xs, out []float64), xs, ys, start []float64) ([]float64, float64) {
	opt := defaultLMOptions()
	m, n := len(xs), len(start)

	// Every buffer comes from one allocation, so the iterations allocate
	// nothing: the parameters and trial parameters, the residuals at each,
	// the column-major Jacobian (column j is jac[j*m:(j+1)*m]), the
	// row-major n×n JᵀJ and its damped copy a, Jᵀr, and the damped
	// system's right-hand side b and step.
	buf := make([]float64, 5*n+2*m+m*n+2*n*n)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	p, trial, r, tr := take(n), take(n), take(m), take(m)
	jac, jtj, a := take(m*n), take(n*n), take(n*n)
	jtr, b, delta := take(n), take(n), take(n)
	copy(p, start)

	chi, ok := lmResiduals(evalAll, xs, ys, p, r)
	if !ok {
		return p, chi
	}
	lambda := opt.InitDamp

	for iter := 0; iter < opt.MaxIter; iter++ {
		// Forward-difference Jacobian, one column per parameter.
		for j := 0; j < n; j++ {
			col := jac[j*m : (j+1)*m]
			h := 1e-7 * (math.Abs(p[j]) + 1e-7)
			pj := p[j]
			p[j] = pj + h
			evalAll(p, xs, col)
			p[j] = pj
			bad := false
			for i, v := range col {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					bad = true
					break
				}
				col[i] = (v - ys[i] - r[i]) / h
			}
			if bad {
				// Retreat to a one-sided step in the other direction.
				p[j] = pj - h
				evalAll(p, xs, col)
				p[j] = pj
				for i, v := range col {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return p, chi
					}
					col[i] = (r[i] - (v - ys[i])) / h
				}
			}
		}

		normalEquations(jac, r, jtj, jtr, m, n)

		gradNorm := 0.0
		for j := 0; j < n; j++ {
			gradNorm += jtr[j] * jtr[j]
		}
		if math.Sqrt(gradNorm) < opt.TolGrad {
			break
		}

		improved := false
		for attempt := 0; attempt < 12; attempt++ {
			// Damped system: (JᵀJ + λ diag(JᵀJ) + εI) δ = -Jᵀr. solveLinear
			// clobbers a and b, so both are rebuilt in full on every
			// attempt.
			copy(a, jtj)
			for j := 0; j < n; j++ {
				d := jtj[j*n+j]
				if d == 0 {
					d = 1e-12
				}
				a[j*n+j] += lambda*d + 1e-15
				b[j] = -jtr[j]
			}
			if err := solveLinear(a, b, delta); err != nil {
				lambda *= 10
				continue
			}
			stepNorm := 0.0
			for j := 0; j < n; j++ {
				trial[j] = p[j] + delta[j]
				stepNorm += delta[j] * delta[j]
			}
			tchi, ok := lmResiduals(evalAll, xs, ys, trial, tr)
			if ok && tchi < chi {
				relDrop := (chi - tchi) / (chi + 1e-300)
				p, trial = trial, p
				r, tr = tr, r
				chi = tchi
				lambda = math.Max(lambda*0.3, 1e-12)
				improved = true
				if math.Sqrt(stepNorm) < opt.TolStep || relDrop < opt.TolChiRel {
					return p, chi
				}
				break
			}
			lambda *= 10
			if lambda > 1e12 {
				return p, chi
			}
		}
		if !improved {
			break
		}
	}
	return p, chi
}

// normalEquations fills the row-major n×n jtj with JᵀJ and jtr with Jᵀr,
// where jac is the column-major m×n Jacobian. Every entry is one dot product
// summed in a register over the points in order, the order the fitted bits
// depend on; JᵀJ's upper triangle is computed and mirrored.
func normalEquations(jac, r, jtj, jtr []float64, m, n int) {
	for j := 0; j < n; j++ {
		cj := jac[j*m : (j+1)*m]
		rj := r[:len(cj)]
		s := 0.0
		for i, v := range cj {
			s += v * rj[i]
		}
		jtr[j] = s
		for k := j; k < n; k++ {
			ck := jac[k*m:][:len(cj)]
			s := 0.0
			for i, v := range cj {
				s += v * ck[i]
			}
			jtj[j*n+k], jtj[k*n+j] = s, s
		}
	}
}
