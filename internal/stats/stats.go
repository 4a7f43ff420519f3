// Package stats is a small statistics kit used by the experiment harness:
// summary statistics, quantiles, and least-squares fits on transformed axes
// (used to estimate scaling exponents such as the log-log slope of leader
// election time versus n).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Mean returns the arithmetic mean. It panics on an empty sample.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It panics on an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile q=%v out of [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit is a least-squares line y = Slope*x + Intercept with goodness R2.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y = a*x + b by ordinary least squares. It panics unless
// len(xs) == len(ys) >= 2 and the xs are not all identical.
func LinearFit(xs, ys []float64) Fit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic(fmt.Sprintf("stats: LinearFit needs matched samples of size >= 2, got %d and %d", len(xs), len(ys)))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}

// LogLogFit fits log(y) = a*log(x) + b; the returned Slope estimates the
// scaling exponent of y ~ x^a. All values must be positive.
func LogLogFit(xs, ys []float64) Fit {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic(fmt.Sprintf("stats: LogLogFit needs positive data, got (%v, %v)", xs[i], ys[i]))
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}

// SemiLogXFit fits y = a*log(x) + b, the model for Θ(log n) quantities.
func SemiLogXFit(xs, ys []float64) Fit {
	lx := make([]float64, len(xs))
	for i := range xs {
		if xs[i] <= 0 {
			panic(fmt.Sprintf("stats: SemiLogXFit needs positive x, got %v", xs[i]))
		}
		lx[i] = math.Log(xs[i])
	}
	return LinearFit(lx, ys)
}

// KSStatistic computes the two-sample Kolmogorov–Smirnov statistic
// sup |F_a - F_b| between the empirical distributions of a and b. Both
// samples must be nonempty. Used by E7 to compare the FSSGA walk law with
// the direct random walk beyond first moments.
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KSStatistic needs nonempty samples")
	}
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	i, j := 0, 0
	maxD := 0.0
	for i < len(sa) && j < len(sb) {
		var x float64
		if sa[i] <= sb[j] {
			x = sa[i]
		} else {
			x = sb[j]
		}
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		d := float64(i)/float64(len(sa)) - float64(j)/float64(len(sb))
		if d < 0 {
			d = -d
		}
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// KSThreshold returns the critical value for rejecting "same
// distribution" at significance alpha ∈ {0.05, 0.01} for sample sizes
// n and m (the asymptotic c(α)·sqrt((n+m)/(n·m)) formula).
func KSThreshold(n, m int, alpha float64) float64 {
	c := 1.358 // alpha = 0.05
	if alpha <= 0.01 {
		c = 1.628
	}
	return c * math.Sqrt(float64(n+m)/float64(n*m))
}
