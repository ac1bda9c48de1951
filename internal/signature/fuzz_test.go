package signature

import (
	"math"
	"testing"

	"repro/internal/model"
)

// FuzzSignatureFit checks Fit's contract on arbitrary inputs: it either
// returns an error or a physical signature — finite γ ≥ 1, finite δ ≥ 0
// — with a finite MAPE. The inputs are a Hockney pair, a process count
// and six (size, time) samples; the seed uses sigfit's profile-mode
// sizes. testdata/fuzz/FuzzSignatureFit holds inputs that broke the
// contract before Fit validated its samples, clamped the γ-only refit
// and rejected an overflowed fit: γ < 1 from positive samples, a
// negative time, a NaN time and an overflowing lower bound.
func FuzzSignatureFit(f *testing.F) {
	sizes := [6]int{16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	f.Add(3.5e-5, 4e-9, 8, sizes[0], sizes[1], sizes[2], sizes[3], sizes[4], sizes[5],
		0.01, 0.03, 0.06, 0.12, 0.25, 0.5)
	f.Fuzz(func(t *testing.T, alpha, beta float64, n int,
		m0, m1, m2, m3, m4, m5 int, t0, t1, t2, t3, t4, t5 float64) {
		samples := []Sample{{m0, t0}, {m1, t1}, {m2, t2}, {m3, t3}, {m4, t4}, {m5, t5}}
		sig, rep, err := Fit(model.Hockney{Alpha: alpha, Beta: beta}, n, samples, Options{})
		if err != nil {
			return
		}
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if !finite(sig.Gamma) || sig.Gamma < 1 {
			t.Fatalf("γ = %v, want finite and ≥ 1 (samples %v)", sig.Gamma, samples)
		}
		if !finite(sig.Delta) || sig.Delta < 0 {
			t.Fatalf("δ = %v, want finite and ≥ 0 (samples %v)", sig.Delta, samples)
		}
		if !finite(rep.MAPE) {
			t.Fatalf("MAPE = %v, want finite (samples %v)", rep.MAPE, samples)
		}
	})
}
