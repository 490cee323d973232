package fit

import (
	"math"
	"testing"
)

// pointwise lifts a one-point model to the batched form LevenbergMarquardt
// takes.
func pointwise(f func(p []float64, x float64) float64) func(p, xs, out []float64) {
	return func(p, xs, out []float64) {
		for i, x := range xs {
			out[i] = f(p, x)
		}
	}
}

func TestLMRecoversExponential(t *testing.T) {
	// y = exp(0.5 + 0.1x), an exact member of the ExpRat family (c=1, d=0).
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(0.5 + 0.1*x)
	}
	start := []float64{0, 0, 1, 0}
	p, chi := LevenbergMarquardt(ExpRat.EvalAll, xs, ys, start)
	if chi > 1e-8 {
		t.Fatalf("chi = %v, want near zero (params %v)", chi, p)
	}
	for i, x := range xs {
		got := ExpRat.Eval(p, x)
		if math.Abs(got-ys[i]) > 1e-4 {
			t.Errorf("at x=%v got %v want %v", x, got, ys[i])
		}
	}
}

func TestLMRecoversRational(t *testing.T) {
	// y = (1 + 2x) / (1 + 0.1x), expressed in Rat22 with a2=b2=0.
	truth := []float64{1, 2, 0, 0.1, 0}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = Rat22.Eval(truth, x)
	}
	starts := Rat22.Starts(xs, ys)
	best := math.Inf(1)
	var bestP []float64
	for _, s := range starts {
		p, chi := LevenbergMarquardt(Rat22.EvalAll, xs, ys, s)
		if chi < best {
			best, bestP = chi, p
		}
	}
	if best > 1e-6 {
		t.Fatalf("chi = %v, want near zero", best)
	}
	// The fitted function must reproduce the data (params may differ since
	// rationals are not uniquely parameterized).
	for i, x := range xs {
		got := Rat22.Eval(bestP, x)
		if math.Abs(got-ys[i]) > 1e-3*(1+math.Abs(ys[i])) {
			t.Errorf("at x=%v got %v want %v", x, got, ys[i])
		}
	}
}

func TestLMImprovesOnStart(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1.2, 2.1, 2.9, 4.2, 4.8}
	f := func(p []float64, x float64) float64 { return p[0] + p[1]*x }
	start := []float64{10, -3} // deliberately bad
	chiAt := func(p []float64) float64 {
		s := 0.0
		for i, x := range xs {
			d := f(p, x) - ys[i]
			s += d * d
		}
		return s
	}
	p, chi := LevenbergMarquardt(pointwise(f), xs, ys, start)
	if chi >= chiAt(start) {
		t.Errorf("LM did not improve: %v >= %v", chi, chiAt(start))
	}
	if math.Abs(p[1]-1) > 0.2 {
		t.Errorf("slope %v far from 1", p[1])
	}
}

func TestLMHandlesNaNStart(t *testing.T) {
	// A start that makes the model NaN must not panic and must return.
	xs := []float64{1, 2, 3}
	ys := []float64{1, 2, 3}
	f := func(p []float64, x float64) float64 {
		return math.Sqrt(p[0]) * x // NaN for negative p[0]
	}
	p, chi := LevenbergMarquardt(pointwise(f), xs, ys, []float64{-1})
	if len(p) != 1 {
		t.Fatal("params length changed")
	}
	if !math.IsInf(chi, 1) {
		t.Logf("chi = %v (acceptable if finite after recovery)", chi)
	}
}

func TestLMZeroResidualStart(t *testing.T) {
	// Starting exactly at the optimum should stay there.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	f := func(p []float64, x float64) float64 { return p[0] * x }
	p, chi := LevenbergMarquardt(pointwise(f), xs, ys, []float64{2})
	if chi > 1e-20 {
		t.Errorf("chi = %v at exact optimum", chi)
	}
	if math.Abs(p[0]-2) > 1e-9 {
		t.Errorf("param drifted: %v", p[0])
	}
}
