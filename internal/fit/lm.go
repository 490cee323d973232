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

// lmResiduals fills r with f(p, xs[i]) - ys[i] and returns the sum of
// squares. It reports false, with an infinite sum, as soon as f produces a
// NaN or an infinity.
func lmResiduals(f func(p []float64, x float64) float64, xs, ys, p, r []float64) (float64, bool) {
	chi := 0.0
	for i := range xs {
		v := f(p, xs[i])
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
// residuals. The Jacobian is computed by forward differences. The
// implementation is the classic damped normal-equations variant: solve
// (JᵀJ + λ diag(JᵀJ)) δ = -Jᵀr, accept steps that reduce χ², shrinking λ on
// success and growing it on failure.
func LevenbergMarquardt(f func(p []float64, x float64) float64, xs, ys, start []float64) ([]float64, float64) {
	opt := defaultLMOptions()
	m, n := len(xs), len(start)

	// Every buffer comes from two allocations, so the iterations allocate
	// nothing: the parameters and trial parameters, the residuals at each,
	// the row-major m×n Jacobian, JᵀJ and its damped copy a (row headers
	// in rows), Jᵀr, and the damped system's right-hand side b and step.
	buf := make([]float64, 5*n+2*m+m*n+2*n*n)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	p, trial, r, tr := take(n), take(n), take(m), take(m)
	jac, jtjFlat, aFlat := take(m*n), take(n*n), take(n*n)
	jtr, b, delta := take(n), take(n), take(n)
	rows := make([][]float64, 2*n)
	jtj, a := rows[:n:n], rows[n:]
	for j := 0; j < n; j++ {
		jtj[j] = jtjFlat[j*n : (j+1)*n : (j+1)*n]
		a[j] = aFlat[j*n : (j+1)*n : (j+1)*n]
	}
	copy(p, start)

	chi, ok := lmResiduals(f, xs, ys, p, r)
	if !ok {
		return p, chi
	}
	lambda := opt.InitDamp

	for iter := 0; iter < opt.MaxIter; iter++ {
		// Forward-difference Jacobian.
		for j := 0; j < n; j++ {
			h := 1e-7 * (math.Abs(p[j]) + 1e-7)
			pj := p[j]
			p[j] = pj + h
			bad := false
			for i := range xs {
				v := f(p, xs[i])
				if math.IsNaN(v) || math.IsInf(v, 0) {
					bad = true
					break
				}
				jac[i*n+j] = (v - ys[i] - r[i]) / h
			}
			p[j] = pj
			if bad {
				// Retreat to a one-sided step in the other direction.
				p[j] = pj - h
				ok := true
				for i := range xs {
					v := f(p, xs[i])
					if math.IsNaN(v) || math.IsInf(v, 0) {
						ok = false
						break
					}
					jac[i*n+j] = (r[i] - (v - ys[i])) / h
				}
				p[j] = pj
				if !ok {
					return p, chi
				}
			}
		}

		// Build JᵀJ and Jᵀr.
		clear(jtjFlat)
		clear(jtr)
		for i := range xs {
			row := jac[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				jtr[j] += row[j] * r[i]
				for k := j; k < n; k++ {
					jtj[j][k] += row[j] * row[k]
				}
			}
		}
		for j := 0; j < n; j++ {
			for k := 0; k < j; k++ {
				jtj[j][k] = jtj[k][j]
			}
		}

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
			// clobbers a and b and may permute a's rows, so both are rebuilt
			// in full on every attempt.
			for j := 0; j < n; j++ {
				copy(a[j], jtj[j])
				d := jtj[j][j]
				if d == 0 {
					d = 1e-12
				}
				a[j][j] += lambda*d + 1e-15
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
			tchi, ok := lmResiduals(f, xs, ys, trial, tr)
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
