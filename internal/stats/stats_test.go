package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/testutil"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if !approx(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if q := Quantile(xs, 0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !approx(q, 25, 1e-12) {
		t.Fatalf("median = %v", q)
	}
	// Input must not be mutated (Quantile sorts a copy).
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileBadQPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	f := LinearFit(xs, ys)
	if !approx(f.Slope, 2, 1e-12) || !approx(f.Intercept, 3, 1e-12) || !approx(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	f := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if !approx(f.Slope, 0, 1e-12) || !approx(f.R2, 1, 1e-12) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinearFitConstantXPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
}

func TestLogLogFitRecoversExponent(t *testing.T) {
	// y = 4 * x^2.5 exactly.
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16, 32} {
		xs = append(xs, x)
		ys = append(ys, 4*math.Pow(x, 2.5))
	}
	f := LogLogFit(xs, ys)
	if !approx(f.Slope, 2.5, 1e-9) {
		t.Fatalf("exponent = %v", f.Slope)
	}
	if !approx(f.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestLogLogFitRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogLogFit([]float64{1, 0}, []float64{1, 2})
}

func TestSemiLogXFit(t *testing.T) {
	// y = 3*ln(x) + 1.
	var xs, ys []float64
	for _, x := range []float64{2, 4, 8, 16} {
		xs = append(xs, x)
		ys = append(ys, 3*math.Log(x)+1)
	}
	f := SemiLogXFit(xs, ys)
	if !approx(f.Slope, 3, 1e-9) || !approx(f.Intercept, 1, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
}

// Property: fitting noisy data from a known line recovers the slope within
// a loose tolerance, and R2 stays in [0, 1].
func TestLinearFitNoisyProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		slope := float64(rng.Intn(9) - 4)
		var xs, ys []float64
		for i := 0; i < 50; i++ {
			x := float64(i)
			xs = append(xs, x)
			ys = append(ys, slope*x+10+rng.NormFloat64()*0.01)
		}
		f := LinearFit(xs, ys)
		return approx(f.Slope, slope, 0.01) && f.R2 >= 0 && f.R2 <= 1+1e-9
	}
	if err := quick.Check(prop, testutil.QuickN(t, 136, 30)); err != nil {
		t.Fatal(err)
	}
}

func TestKSStatisticIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(a, a); d != 0 {
		t.Fatalf("KS of identical samples = %v", d)
	}
}

func TestKSStatisticDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Fatalf("KS of disjoint samples = %v, want 1", d)
	}
}

func TestKSStatisticSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b []float64
	for i := 0; i < 500; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64())
	}
	d := KSStatistic(a, b)
	if d > KSThreshold(len(a), len(b), 0.01) {
		t.Fatalf("same-distribution samples rejected: D=%v", d)
	}
}

func TestKSStatisticShiftedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b []float64
	for i := 0; i < 500; i++ {
		a = append(a, rng.NormFloat64())
		b = append(b, rng.NormFloat64()+1.0)
	}
	d := KSStatistic(a, b)
	if d <= KSThreshold(len(a), len(b), 0.05) {
		t.Fatalf("shifted distribution not detected: D=%v", d)
	}
}

func TestKSStatisticEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KSStatistic(nil, []float64{1})
}
