package fit

import (
	"math"
	"testing"
)

// benchWindow is a 10-point measurement window (cores 1..10) of a
// saturating rational shape with deterministic LCG noise, the size of the
// pipeline's usual one-processor window.
func benchWindow() (xs, ys []float64) {
	return bitsSeries{"bench", 10, 9, 0.03, func(x float64) float64 {
		return (2e6 + 9e5*x) / (1 + 0.04*x)
	}}.window()
}

// lmInput returns kern's first standard start on the normalized bench
// window, the inputs fitOne hands LevenbergMarquardt.
func lmInput(kern *Kernel) (xs, norm, start []float64) {
	xs, ys := benchWindow()
	scale := 0.0
	for _, y := range ys {
		scale += math.Abs(y)
	}
	scale /= float64(len(ys))
	norm = make([]float64, len(ys))
	for i, y := range ys {
		norm[i] = y / scale
	}
	return xs, norm, kern.Starts(xs, norm)[0]
}

var lmKernels = []*Kernel{Rat22, Rat23, Rat33, ExpRat}

// TestLevenbergMarquardtAllocs locks in the solver's allocation budget: one
// call allocates its workspace, a single float buffer, and nothing per
// iteration or per damping attempt.
func TestLevenbergMarquardtAllocs(t *testing.T) {
	for _, kern := range lmKernels {
		xs, norm, start := lmInput(kern)
		avg := testing.AllocsPerRun(20, func() {
			LevenbergMarquardt(kern.EvalAll, xs, norm, start)
		})
		if avg > 1 {
			t.Errorf("%s: LevenbergMarquardt allocates %.1f objects per call, want <= 1", kern.Name, avg)
		}
	}
}

var (
	sinkParams []float64
	sinkFits   []*Fit
)

func BenchmarkLevenbergMarquardt(b *testing.B) {
	for _, kern := range lmKernels {
		xs, norm, start := lmInput(kern)
		b.Run(kern.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkParams, _ = LevenbergMarquardt(kern.EvalAll, xs, norm, start)
			}
		})
	}
}

// BenchmarkCandidateFits is the fitting layer's per-category cost: every
// kernel on every prefix of a 10-point window under the pipeline's growth
// and tail-slope caps.
func BenchmarkCandidateFits(b *testing.B) {
	xs, ys := benchWindow()
	opt := Options{MaxX: 40, MaxGrowth: 20, TailSlopeCap: 4}
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if sinkFits, err = CandidateFits(xs, ys, opt); err != nil {
			b.Fatal(err)
		}
	}
}
