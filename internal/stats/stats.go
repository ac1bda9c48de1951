// Package stats provides the small statistical toolkit the paper's
// methodology needs: ordinary and weighted (diagonal GLS) least squares
// for line fitting, two-regressor least squares for the contention
// signature, and summary statistics for measurement series.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrDegenerate is returned when a fit has too few points or a singular
// design matrix.
var ErrDegenerate = errors.New("stats: degenerate fit")

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) with linear
// interpolation, copying its input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// LinFit fits y = a + b·x by ordinary least squares.
func LinFit(x, y []float64) (a, b float64, err error) {
	w := make([]float64, len(x))
	for i := range w {
		w[i] = 1
	}
	return weightedLinFit(x, y, w)
}

// weightedLinFit fits y = a + b·x minimizing Σ wᵢ(yᵢ - a - b·xᵢ)².
// A diagonal weight matrix makes this the generalized-least-squares
// variant the paper uses for signature fitting.
func weightedLinFit(x, y, w []float64) (a, b float64, err error) {
	if len(x) != len(y) || len(x) != len(w) || len(x) < 2 {
		return 0, 0, ErrDegenerate
	}
	var sw, swx, swy, swxx, swxy float64
	for i := range x {
		sw += w[i]
		swx += w[i] * x[i]
		swy += w[i] * y[i]
		swxx += w[i] * x[i] * x[i]
		swxy += w[i] * x[i] * y[i]
	}
	det := sw*swxx - swx*swx
	if math.Abs(det) < 1e-300 || sw == 0 {
		return 0, 0, ErrDegenerate
	}
	b = (sw*swxy - swx*swy) / det
	a = (swy - b*swx) / sw
	return a, b, nil
}

// ScaleFit fits y = b·x (through the origin), optionally weighted; pass
// nil weights for OLS.
func ScaleFit(x, y, w []float64) (b float64, err error) {
	if len(x) != len(y) || len(x) == 0 {
		return 0, ErrDegenerate
	}
	var num, den float64
	for i := range x {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		num += wi * x[i] * y[i]
		den += wi * x[i] * x[i]
	}
	if den == 0 {
		return 0, ErrDegenerate
	}
	return num / den, nil
}

// TwoRegressorFit solves y ≈ b1·x1 + b2·x2 by (weighted) least squares
// via the 2×2 normal equations. Pass nil weights for OLS. This is the
// solver behind the (γ, δ) signature fit, where x1 is the lower bound
// and x2 the δ-activation indicator.
func TwoRegressorFit(x1, x2, y, w []float64) (b1, b2 float64, err error) {
	if len(x1) != len(y) || len(x2) != len(y) || len(y) < 2 {
		return 0, 0, ErrDegenerate
	}
	var s11, s12, s22, s1y, s2y float64
	for i := range y {
		wi := 1.0
		if w != nil {
			wi = w[i]
		}
		s11 += wi * x1[i] * x1[i]
		s12 += wi * x1[i] * x2[i]
		s22 += wi * x2[i] * x2[i]
		s1y += wi * x1[i] * y[i]
		s2y += wi * x2[i] * y[i]
	}
	det := s11*s22 - s12*s12
	if math.Abs(det) < 1e-300 {
		// x2 may be all zeros (no point at or past the breakpoint):
		// degrade to a pure scale fit on x1.
		if s11 == 0 {
			return 0, 0, ErrDegenerate
		}
		return s1y / s11, 0, nil
	}
	b1 = (s22*s1y - s12*s2y) / det
	b2 = (s11*s2y - s12*s1y) / det
	return b1, b2, nil
}

// relErr returns (measured/estimated − 1), the paper's error metric
// (multiply by 100 for percent).
func relErr(measured, estimated float64) float64 {
	if estimated == 0 {
		return math.NaN()
	}
	return measured/estimated - 1
}

// MeanAbsRelErr returns the mean of |measured/estimated − 1| over the
// series.
func MeanAbsRelErr(measured, estimated []float64) float64 {
	if len(measured) != len(estimated) || len(measured) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range measured {
		s += math.Abs(relErr(measured[i], estimated[i]))
	}
	return s / float64(len(measured))
}
