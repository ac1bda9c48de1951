package model

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Size-indexed contention factors. The fitted factors (per-tier γ_wan,
// ω, κ) summarize loss-recovery inflation the analytics cannot supply,
// and that inflation is not size-free: small messages sit in the
// RTO-chaos regime where a single timeout multiplies completion, large
// aggregates push past the congestion-window knee where the explicit
// serialization terms already carry the cost. A factor fitted at one
// probe size therefore drifts when reused far from it (GR4: ranking
// survives, magnitudes drift up to +160%). A FactorCurve carries the
// factor at several fitted probe sizes instead and interpolates between
// them — the paper's "fit where you can measure, extrapolate by model"
// move, applied along the size axis.

// FactorPoint is one fitted point of a FactorCurve: the contention
// factor measured at a per-pair probe message size.
type FactorPoint struct {
	// Bytes is the per-pair message size the factor was fitted at.
	Bytes int
	// Factor is the fitted contention factor (≥ 1 after clamping).
	Factor float64
}

// FactorCurve is a size-indexed contention factor: fitted
// (size, factor) points ascending in Bytes. Lookups interpolate
// linearly in log-size between points (contention regimes — RTO chaos,
// slow-start, window cap — shift with the order of magnitude of the
// message, not its absolute byte count) and extrapolate with the
// terminal values beyond either end. A curve holding exactly one point
// is scalar-compatible: At returns that point's factor for every size,
// reproducing the scalar-factor model bit-identically. The zero value
// (no points) is the identity factor 1.
type FactorCurve struct {
	// Points are the fitted (size, factor) samples, ascending in Bytes
	// with distinct sizes. Construct with ScalarFactor or CurveOf (which
	// sort and deduplicate) unless the invariant is upheld by hand.
	Points []FactorPoint
}

// ScalarFactor returns the scalar-compatible single-point curve: every
// lookup yields f, bit-identical to the pre-curve scalar factor.
func ScalarFactor(f float64) FactorCurve {
	return FactorCurve{Points: []FactorPoint{{Bytes: 0, Factor: f}}}
}

// CurveOf builds a curve from fitted points, sorting by size and
// dropping duplicate sizes (keeping the first occurrence) and
// non-finite factors — fitting noise must never poison lookups with
// NaN/Inf.
func CurveOf(points ...FactorPoint) FactorCurve {
	kept := make([]FactorPoint, 0, len(points))
	for _, p := range points {
		if math.IsNaN(p.Factor) || math.IsInf(p.Factor, 0) {
			continue
		}
		kept = append(kept, p)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Bytes < kept[j].Bytes })
	out := kept[:0]
	for i, p := range kept {
		if i > 0 && p.Bytes == kept[i-1].Bytes {
			continue
		}
		out = append(out, p)
	}
	return FactorCurve{Points: append([]FactorPoint(nil), out...)}
}

// IsZero reports whether the curve holds no fitted points (the identity
// factor).
func (c FactorCurve) IsZero() bool { return len(c.Points) == 0 }

// At returns the factor at a per-pair message size: the sole point's
// factor for scalar-compatible curves, log-size linear interpolation
// between bracketing points otherwise, and the terminal point's value
// beyond either end. An empty curve is the identity factor 1;
// zero-width segments (equal sizes, possible only on hand-built
// curves) are skipped defensively rather than divided by.
func (c FactorCurve) At(bytes int) float64 {
	f, _, _ := c.Lookup(bytes)
	return f
}

// Lookup returns At(bytes) together with the fitted points the lookup
// read: the bracketing points when interpolating, the terminal (or
// sole) point twice when extrapolating or scalar-compatible, and zero
// points for an empty curve. Tracing uses the neighbors to show which
// calibration measurements a prediction actually leaned on.
func (c FactorCurve) Lookup(bytes int) (f float64, lo, hi FactorPoint) {
	pts := c.Points
	switch len(pts) {
	case 0:
		return 1, FactorPoint{}, FactorPoint{}
	case 1:
		return pts[0].Factor, pts[0], pts[0]
	}
	if bytes <= pts[0].Bytes {
		return pts[0].Factor, pts[0], pts[0]
	}
	for i := 1; i < len(pts); i++ {
		if bytes > pts[i].Bytes {
			continue
		}
		a, b := pts[i-1], pts[i]
		if b.Bytes <= a.Bytes || a.Bytes <= 0 {
			// Zero-width or non-positive-size segment: no log-space
			// interpolation is possible, take the nearer fitted value.
			return b.Factor, a, b
		}
		frac := math.Log(float64(bytes)/float64(a.Bytes)) /
			math.Log(float64(b.Bytes)/float64(a.Bytes))
		return a.Factor + frac*(b.Factor-a.Factor), a, b
	}
	last := pts[len(pts)-1]
	return last.Factor, last, last
}

// String renders the curve for experiment output: a bare number for
// scalar-compatible curves ("2.41"), size-annotated points otherwise
// ("8k:3.10 64k:2.41 256k:1.75").
func (c FactorCurve) String() string {
	switch len(c.Points) {
	case 0:
		return "1.00"
	case 1:
		return fmt.Sprintf("%.2f", c.Points[0].Factor)
	}
	var b strings.Builder
	for i, p := range c.Points {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%.2f", sizeLabel(p.Bytes), p.Factor)
	}
	return b.String()
}

// sizeLabel renders a byte count compactly (4k, 1M, 300).
func sizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dk", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
