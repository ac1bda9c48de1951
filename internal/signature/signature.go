// Package signature implements the paper's central procedure (Section
// 7): estimating a network's contention signature (γ, δ, M) from a small
// set of All-to-All measurements taken at one process count n', by
// least-squares regression against the theoretical lower bound, and the
// associated diagnostics. Once fitted, the model.Signature predicts
// All-to-All completion time for arbitrary process counts and message
// sizes on that network.
package signature

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/stats"
)

// Sample is one measurement: a regular All-to-All of per-pair message
// size M bytes completed in T seconds (at the fitting process count n').
type Sample struct {
	M int     // message size (bytes)
	T float64 // measured completion time (s)
}

// Weighting selects the regression weights.
type Weighting int

const (
	// Uniform is ordinary least squares (the default). Absolute
	// residuals anchor γ on the bandwidth-dominated large-message
	// points — the regime the paper's γ describes — while δ absorbs
	// the affine offset.
	Uniform Weighting = iota
	// Relative weights each point by 1/T², minimizing relative error —
	// a diagonal generalized-least-squares variant that emphasizes the
	// small-message points instead.
	Relative
)

// Options tunes the fit. The zero value is the default procedure:
// uniform weighting and an automatic threshold scan. Every fit clamps a
// negative δ to zero (refitting γ alone) and treats a δ below minDelta
// as nonexistent.
type Options struct {
	Weighting Weighting
	// FixedM skips the threshold scan and uses the given M (bytes).
	// Leave 0 to scan candidate breakpoints.
	FixedM int
}

// minDelta is the magnitude below which a fitted δ is zeroed (1 µs,
// matching the paper's treatment of the Myrinet fit: "a start-up cost δ
// smaller than 1 microsecond").
const minDelta = 1e-6

// Report carries fit diagnostics.
type Report struct {
	SSE        float64         // weighted sum of squared residuals at the optimum
	Candidates map[int]float64 // threshold candidate → weighted SSE
	Residuals  []float64       // per-sample (T - prediction), sample order
	MAPE       float64         // mean |measured/estimated − 1|
}

// ErrTooFewSamples mirrors the paper's requirement of at least four
// measurement points.
var ErrTooFewSamples = errors.New("signature: need at least 4 samples to fit")

// Fit estimates the contention signature from samples measured at
// process count n on a network whose contention-free Hockney parameters
// are h.
func Fit(h model.Hockney, n int, samples []Sample, opts Options) (model.Signature, Report, error) {
	if len(samples) < 4 {
		return model.Signature{}, Report{}, ErrTooFewSamples
	}
	if n < 2 {
		return model.Signature{}, Report{}, fmt.Errorf("signature: need n >= 2, got %d", n)
	}
	if err := h.Validate(); err != nil {
		return model.Signature{}, Report{}, fmt.Errorf("signature: %w", err)
	}
	for i, s := range samples {
		if s.M < 0 || math.IsNaN(s.T) || math.IsInf(s.T, 0) || s.T <= 0 {
			return model.Signature{}, Report{}, fmt.Errorf("signature: sample %d has size %d, time %v", i, s.M, s.T)
		}
	}
	candidates := thresholdCandidates(samples, opts)
	rep := Report{Candidates: make(map[int]float64, len(candidates))}
	best := model.Signature{}
	bestSSE := -1.0
	gammaOnlySSE := -1.0
	var gammaOnlySig model.Signature
	for _, M := range candidates {
		sig, sse, err := fitAt(h, n, samples, M, opts)
		if err != nil {
			continue
		}
		rep.Candidates[M] = sse
		if sig.Delta == 0 && (gammaOnlySSE < 0 || sse < gammaOnlySSE) {
			gammaOnlySSE = sse
			gammaOnlySig = sig
		}
		if bestSSE < 0 || sse < bestSSE {
			bestSSE = sse
			best = sig
		}
	}
	if bestSSE < 0 {
		return model.Signature{}, Report{}, stats.ErrDegenerate
	}
	// Parsimony (scan mode only): accept a δ term only if it at least
	// halves the weighted SSE relative to the best γ-only fit. The
	// threshold scan otherwise lets δ chase measurement noise on
	// networks that have no real affine offset (the paper's Myrinet
	// case: "the linear regression pointed a start-up cost δ smaller
	// than 1 microsecond").
	if opts.FixedM == 0 && best.Delta != 0 && gammaOnlySSE >= 0 && bestSSE > 0.5*gammaOnlySSE {
		best = gammaOnlySig
		bestSSE = gammaOnlySSE
		best.Delta = 0
		best.M = 0
	}
	// A contention ratio below one is unphysical (nothing beats the
	// lower bound): constrain γ = 1 and refit δ alone over the
	// threshold candidates. Relative weighting can otherwise trade γ
	// down against a large δ when the small-message points sit at the
	// bound.
	if best.Gamma < 1 {
		best = refitDeltaOnly(h, n, samples, candidates, opts)
		bestSSE = sseOf(best, n, samples, opts)
	}
	// Sub-threshold positive δ is measurement noise: drop it.
	if best.Delta >= 0 && best.Delta < minDelta && best.Delta != 0 {
		g, err := fitGammaOnly(h, n, samples, opts)
		if err == nil {
			best.Gamma = math.Max(g, 1)
		}
		best.Delta = 0
		best.M = 0
	}
	if best.Delta == 0 {
		best.M = 0
	}
	rep.SSE = bestSSE
	rep.Residuals = make([]float64, len(samples))
	meas := make([]float64, len(samples))
	est := make([]float64, len(samples))
	for i, s := range samples {
		p := best.Predict(n, s.M)
		rep.Residuals[i] = s.T - p
		meas[i], est[i] = s.T, p
	}
	rep.MAPE = stats.MeanAbsRelErr(meas, est)
	// Finite inputs can still overflow the lower bound.
	if best.Validate() != nil || math.IsNaN(rep.MAPE) || math.IsInf(rep.MAPE, 0) {
		return model.Signature{}, Report{}, stats.ErrDegenerate
	}
	return best, rep, nil
}

// thresholdCandidates returns the M values to scan: zero (δ everywhere),
// each distinct sample size, and one past the largest (δ nowhere).
func thresholdCandidates(samples []Sample, opts Options) []int {
	if opts.FixedM > 0 {
		return []int{opts.FixedM}
	}
	seen := map[int]bool{0: true}
	out := []int{0}
	maxM := 0
	for _, s := range samples {
		if !seen[s.M] {
			seen[s.M] = true
			out = append(out, s.M)
		}
		if s.M > maxM {
			maxM = s.M
		}
	}
	out = append(out, maxM+1)
	sort.Ints(out)
	return out
}

// fitAt solves the two-regressor least squares for a fixed threshold M:
// T ≈ γ·LB(n,m) + δ·(n−1)·1{m ≥ M}.
func fitAt(h model.Hockney, n int, samples []Sample, M int, opts Options) (model.Signature, float64, error) {
	x1 := make([]float64, len(samples))
	x2 := make([]float64, len(samples))
	y := make([]float64, len(samples))
	w := weights(samples, opts)
	for i, s := range samples {
		x1[i] = model.LowerBound(h, n, s.M)
		if s.M >= M {
			x2[i] = float64(n - 1)
		}
		y[i] = s.T
	}
	gamma, delta, err := stats.TwoRegressorFit(x1, x2, y, w)
	if err != nil {
		return model.Signature{}, 0, err
	}
	if delta < 0 {
		gamma, err = stats.ScaleFit(x1, y, w)
		if err != nil {
			return model.Signature{}, 0, err
		}
		delta = 0
	}
	sig := model.Signature{H: h, Gamma: gamma, Delta: delta, M: M, SampleN: n}
	var sse float64
	for i, s := range samples {
		r := s.T - sig.Predict(n, s.M)
		sse += w[i] * r * r
	}
	return sig, sse, nil
}

// refitDeltaOnly fixes γ = 1 and fits only the affine overload δ,
// scanning the threshold candidates: δ(M) is the weighted mean of
// (T − LB)/(n−1) over samples with m ≥ M.
func refitDeltaOnly(h model.Hockney, n int, samples []Sample, candidates []int, opts Options) model.Signature {
	w := weights(samples, opts)
	best := model.Signature{H: h, Gamma: 1, SampleN: n}
	bestSSE := -1.0
	for _, M := range candidates {
		var num, den float64
		for i, s := range samples {
			if s.M >= M {
				num += w[i] * (s.T - model.LowerBound(h, n, s.M)) / float64(n-1)
				den += w[i]
			}
		}
		delta := 0.0
		if den > 0 {
			delta = num / den
		}
		if delta < 0 {
			delta = 0
		}
		sig := model.Signature{H: h, Gamma: 1, Delta: delta, M: M, SampleN: n}
		sse := sseOf(sig, n, samples, opts)
		if bestSSE < 0 || sse < bestSSE {
			bestSSE = sse
			best = sig
		}
	}
	return best
}

// sseOf computes the weighted SSE of a signature over the samples.
func sseOf(sig model.Signature, n int, samples []Sample, opts Options) float64 {
	w := weights(samples, opts)
	var sse float64
	for i, s := range samples {
		r := s.T - sig.Predict(n, s.M)
		sse += w[i] * r * r
	}
	return sse
}

// fitGammaOnly fits T ≈ γ·LB with δ forced to zero.
func fitGammaOnly(h model.Hockney, n int, samples []Sample, opts Options) (float64, error) {
	x := make([]float64, len(samples))
	y := make([]float64, len(samples))
	w := weights(samples, opts)
	for i, s := range samples {
		x[i] = model.LowerBound(h, n, s.M)
		y[i] = s.T
	}
	return stats.ScaleFit(x, y, w)
}

// weights builds the regression weight vector.
func weights(samples []Sample, opts Options) []float64 {
	w := make([]float64, len(samples))
	for i, s := range samples {
		switch opts.Weighting {
		case Relative:
			if s.T > 0 {
				w[i] = 1 / (s.T * s.T)
			} else {
				w[i] = 1
			}
		default:
			w[i] = 1
		}
	}
	return w
}
