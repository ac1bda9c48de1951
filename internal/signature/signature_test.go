package signature

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
)

var h = model.Hockney{Alpha: 50e-6, Beta: 8.5e-9}

// synth builds noiseless samples from a ground-truth signature.
func synth(sig model.Signature, n int, sizes []int) []Sample {
	out := make([]Sample, len(sizes))
	for i, m := range sizes {
		out[i] = Sample{M: m, T: sig.Predict(n, m)}
	}
	return out
}

var sweep = []int{256, 1024, 4096, 8192, 16384, 65536, 131072, 262144, 524288, 1048576}

func TestRecoverExactSignature(t *testing.T) {
	truth := model.Signature{H: h, Gamma: 4.3628, Delta: 4.93e-3, M: 8192}
	const n = 40
	got, rep, err := Fit(h, n, synth(truth, n, sweep), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Gamma-truth.Gamma) > 1e-6 {
		t.Fatalf("γ = %v, want %v", got.Gamma, truth.Gamma)
	}
	if math.Abs(got.Delta-truth.Delta) > 1e-9 {
		t.Fatalf("δ = %v, want %v", got.Delta, truth.Delta)
	}
	if got.M != truth.M {
		t.Fatalf("M = %d, want %d", got.M, truth.M)
	}
	if rep.SSE > 1e-12 {
		t.Fatalf("noiseless fit has SSE %v", rep.SSE)
	}
}

func TestRecoverUnderNoise(t *testing.T) {
	truth := model.Signature{H: h, Gamma: 2.49754, Delta: 0, M: 0}
	const n = 24
	rng := rand.New(rand.NewSource(5))
	samples := synth(truth, n, sweep)
	for i := range samples {
		samples[i].T *= 1 + 0.03*(rng.Float64()*2-1) // ±3 % noise
	}
	// Multiplicative noise is what Relative weighting models; Uniform
	// would let the largest point's noise buy a spurious δ.
	got, _, err := Fit(h, n, samples, Options{Weighting: Relative})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Gamma-truth.Gamma)/truth.Gamma > 0.05 {
		t.Fatalf("γ = %v, want ≈%v", got.Gamma, truth.Gamma)
	}
	// The paper's Myrinet result: δ below a microsecond is dropped.
	if got.Delta != 0 {
		t.Fatalf("δ = %v, want 0 under noise for a δ-free network", got.Delta)
	}
}

func TestPredictionExtrapolatesAcrossN(t *testing.T) {
	// Signature fitted at n'=24 must predict other process counts
	// exactly for data generated by the same ground truth (the paper's
	// central claim: the signature is independent of n).
	truth := model.Signature{H: h, Gamma: 1.0195, Delta: 8.23e-3, M: 2048}
	got, _, err := Fit(h, 24, synth(truth, 24, sweep), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{4, 16, 40, 50} {
		for _, m := range []int{512, 4096, 1 << 20} {
			want := truth.Predict(n, m)
			p := got.Predict(n, m)
			if math.Abs(p-want)/want > 1e-6 {
				t.Fatalf("extrapolation n=%d m=%d: %v vs %v", n, m, p, want)
			}
		}
	}
}

func TestFixedMSkipsScan(t *testing.T) {
	truth := model.Signature{H: h, Gamma: 3, Delta: 2e-3, M: 8192}
	const n = 16
	got, rep, err := Fit(h, n, synth(truth, n, sweep), Options{FixedM: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Candidates) != 1 {
		t.Fatalf("scan not skipped: %d candidates", len(rep.Candidates))
	}
	if got.M != 8192 || math.Abs(got.Gamma-3) > 1e-9 {
		t.Fatalf("fixed-M fit wrong: %+v", got)
	}
}

func TestTooFewSamples(t *testing.T) {
	_, _, err := Fit(h, 8, []Sample{{1024, 0.1}, {2048, 0.2}, {4096, 0.4}}, Options{})
	if err != ErrTooFewSamples {
		t.Fatalf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestBadN(t *testing.T) {
	s := synth(model.Signature{H: h, Gamma: 1}, 8, sweep)
	if _, _, err := Fit(h, 1, s, Options{}); err == nil {
		t.Fatal("n=1 must fail")
	}
}

func TestNegativeDeltaClamped(t *testing.T) {
	// Data generated with a *negative* δ: the default fit clamps to 0.
	// δ is small enough that every sample time stays positive (Fit
	// rejects non-positive times).
	const n = 16
	bad := model.Signature{H: h, Gamma: 2, Delta: -1e-4, M: 4096}
	samples := synth(bad, n, sweep)
	got, _, err := Fit(h, n, samples, Options{FixedM: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta != 0 {
		t.Fatalf("δ = %v, want clamped 0", got.Delta)
	}
}

func TestUniformVsRelativeWeighting(t *testing.T) {
	// Corrupt one large-message point; relative weighting should track
	// the small points better than uniform (which chases the big one).
	truth := model.Signature{H: h, Gamma: 2, Delta: 0, M: 0}
	const n = 16
	samples := synth(truth, n, sweep)
	samples[len(samples)-1].T *= 1.5 // corrupt 1 MB point
	// Pin M beyond every sample so both fits are pure γ fits and the
	// comparison isolates the weighting (a free δ would just absorb the
	// corrupted point).
	fixedM := 2 << 20
	rel, _, err := Fit(h, n, samples, Options{Weighting: Relative, FixedM: fixedM})
	if err != nil {
		t.Fatal(err)
	}
	uni, _, err := Fit(h, n, samples, Options{Weighting: Uniform, FixedM: fixedM})
	if err != nil {
		t.Fatal(err)
	}
	errRel := math.Abs(rel.Gamma - 2)
	errUni := math.Abs(uni.Gamma - 2)
	if errRel >= errUni {
		t.Fatalf("relative weighting (γ err %v) should beat uniform (%v) on corrupted tail", errRel, errUni)
	}
}

func TestReportDiagnostics(t *testing.T) {
	truth := model.Signature{H: h, Gamma: 3.3, Delta: 1e-3, M: 4096}
	const n = 20
	_, rep, err := Fit(h, n, synth(truth, n, sweep), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Residuals) != len(sweep) {
		t.Fatalf("residuals len %d, want %d", len(rep.Residuals), len(sweep))
	}
	if len(rep.Candidates) < 3 {
		t.Fatalf("expected several threshold candidates, got %d", len(rep.Candidates))
	}
	if rep.MAPE > 1e-9 {
		t.Fatalf("noiseless MAPE = %v", rep.MAPE)
	}
}

func TestGammaClampedToPhysicalBound(t *testing.T) {
	// Data whose best unconstrained fit would push γ below 1 (small
	// messages at the bound, large ones with a big affine offset):
	// the fitter must return γ = 1 with a pure-δ model instead of an
	// unphysical γ < 1.
	const n = 12
	var samples []Sample
	for _, m := range sweep {
		lb := model.LowerBound(h, n, m)
		t := 0.7*lb + float64(n-1)*10e-3
		samples = append(samples, Sample{M: m, T: t})
	}
	got, _, err := Fit(h, n, samples, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Gamma < 1 {
		t.Fatalf("γ = %v, want clamp at 1", got.Gamma)
	}
	if got.Delta <= 0 {
		t.Fatalf("δ = %v, want positive offset after clamping", got.Delta)
	}
}

func TestMinDeltaThreshold(t *testing.T) {
	// δ of 0.5 µs (sub-minDelta) is treated as nonexistent.
	truth := model.Signature{H: h, Gamma: 2.5, Delta: 5e-7, M: 4096}
	const n = 24
	got, _, err := Fit(h, n, synth(truth, n, sweep), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Delta != 0 || got.M != 0 {
		t.Fatalf("tiny δ not dropped: δ=%v M=%d", got.Delta, got.M)
	}
	if math.Abs(got.Gamma-2.5)/2.5 > 0.01 {
		t.Fatalf("γ drifted after δ drop: %v", got.Gamma)
	}
}

func TestFitRejectsUnusableInputs(t *testing.T) {
	const n = 8
	good := synth(model.Signature{H: h, Gamma: 2}, n, sweep)
	for _, tc := range []struct {
		name string
		h    model.Hockney
		mut  func(s []Sample)
		want string
	}{
		{"negative time", h, func(s []Sample) { s[2].T = -1e-3 }, "sample 2"},
		{"zero time", h, func(s []Sample) { s[3].T = 0 }, "sample 3"},
		{"NaN time", h, func(s []Sample) { s[1].T = math.NaN() }, "sample 1"},
		{"infinite time", h, func(s []Sample) { s[4].T = math.Inf(1) }, "sample 4"},
		{"negative size", h, func(s []Sample) { s[0].M = -1 }, "sample 0"},
		{"NaN alpha", model.Hockney{Alpha: math.NaN(), Beta: h.Beta}, func([]Sample) {}, "Hockney"},
		{"negative beta", model.Hockney{Alpha: h.Alpha, Beta: -1}, func([]Sample) {}, "Hockney"},
	} {
		s := append([]Sample(nil), good...)
		tc.mut(s)
		if _, _, err := Fit(tc.h, n, s, Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
