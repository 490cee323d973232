package fit

import (
	"math"
	"testing"
)

// TestBatchEvalMatchesEval checks that every kernel's batched evaluation,
// the form Levenberg–Marquardt runs, produces exactly Eval's bits, so
// switching the solver to it cannot move a fit. Unlike TestFitBitsPinned it
// runs on every GOARCH: the kernel formulas round each product explicitly,
// so a fused multiply-add cannot split the two paths. The params include
// ones that put a pole on a point, overflow and carry a NaN. A NaN matches
// any NaN: which payload an instruction propagates is not part of Go's
// semantics, and every consumer tests with math.IsNaN.
func TestBatchEvalMatchesEval(t *testing.T) {
	// Each special set, zero-padded to the kernel's NParams: the rational
	// and ExpRat ones place a zero denominator at x = 2.
	special := map[string][][]float64{
		"Rat22":  {{1, 0, 0, -0.5}, {0, 0, 0, -0.5}},
		"Rat23":  {{1, 0, 0, -0.5}, {0, 0, 0, -0.5}},
		"Rat33":  {{1, 0, 0, 0, -0.5}, {0, 0, 0, 0, -0.5}},
		"ExpRat": {{1, 0, 1, -0.5}, {0, 0, 1, -0.5}, {800, 1, 1, 0}},
	}
	xs := []float64{0, 0.5, 1, 2, 3, 7, 12, 48, 1e3, 1e80, 1e200, -3}
	g := lcg(42)
	for i := 0; i < 20; i++ {
		xs = append(xs, 64*(g.noise()+0.5))
	}
	for _, k := range append(append([]*Kernel{}, AllKernels...), Linear) {
		var params [][]float64
		for c := 0; c < 50; c++ {
			p := make([]float64, k.NParams)
			for j := range p {
				p[j] = 8 * g.noise() * math.Pow(10, math.Round(6*g.noise()))
			}
			params = append(params, p)
		}
		pad := func(vals ...float64) []float64 {
			p := make([]float64, k.NParams)
			copy(p, vals)
			return p
		}
		for _, vals := range special[k.Name] {
			params = append(params, pad(vals...))
		}
		params = append(params,
			pad(1e300, 1e300, 1e300, 1e300),
			pad(math.NaN(), 1),
			pad(1, math.Inf(1), 1),
			pad(math.Inf(-1), math.Inf(1)),
		)
		out := make([]float64, len(xs))
		for _, p := range params {
			k.EvalAll(p, xs, out)
			for i, x := range xs {
				want := k.Eval(p, x)
				if math.Float64bits(out[i]) != math.Float64bits(want) && !(math.IsNaN(out[i]) && math.IsNaN(want)) {
					t.Errorf("%s%v at x=%v: EvalAll = %v (%#x), Eval = %v (%#x)",
						k.Name, p, x, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
				}
			}
		}
	}
}
