// Package model implements the analytical performance models discussed
// in the paper: the Hockney point-to-point transmission model, the total
// exchange lower bound (Proposition 1), the contention-unaware baseline
// (eq. 1), Clement's contention factor (eq. 2), Chun's size-dependent
// latency model, the two-beta throughput-under-contention approach
// (Section 6), and the paper's contention signature model (Section 7,
// eqs. 4 and 5). All times are in seconds, message sizes in bytes.
package model

import "fmt"

// Hockney is the point-to-point transmission model T(m) = α + m·β.
type Hockney struct {
	Alpha float64 // start-up latency (s)
	Beta  float64 // gap per byte (s/B); 1/β is the bandwidth
}

// String renders the parameters in conventional units.
func (h Hockney) String() string {
	return fmt.Sprintf("α=%.3gs β=%.4gs/B (%.1f MB/s)", h.Alpha, h.Beta, 1/h.Beta/1e6)
}

// LowerBound is Proposition 1: with 1-port full-duplex communication, no
// forwarding, equal message sizes and a homogeneous network, a total
// exchange takes at least (n−1)·α + (n−1)·m·β.
func LowerBound(h Hockney, n, m int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * (h.Alpha + h.Beta*float64(m))
}

// Model predicts the completion time of an n-process All-to-All with
// per-pair message size m bytes.
type Model interface {
	Name() string
	Predict(n, m int) float64
}

// Naive is the contention-unaware model of eq. (1) (Christara,
// Pjesivac-Grbovic): T = (n−1)(α + βm) — identical to the lower bound.
type Naive struct {
	H Hockney
}

// Name implements Model.
func (d Naive) Name() string { return "naive-lower-bound" }

// Predict implements Model.
func (d Naive) Predict(n, m int) float64 { return LowerBound(d.H, n, m) }

// Clement is eq. (2): T = l + bγ/W with the contention factor γ equal to
// the number of processes, i.e. T = α + m·n·β. It assumes all processes
// communicate simultaneously on a shared medium and models a single
// message's cost; the All-to-All then repeats it n−1 times.
type Clement struct {
	H Hockney
}

// Name implements Model.
func (c Clement) Name() string { return "clement-contention-factor" }

// Predict implements Model.
func (c Clement) Predict(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	perMsg := c.H.Alpha + float64(m)*float64(n)*c.H.Beta
	return float64(n-1) * perMsg
}

// Chun models contention as a message-size-dependent latency: a latency
// table maps size classes to measured latencies (under load), keeping a
// single β. It ignores how many messages are in flight.
type Chun struct {
	Beta float64
	// Steps maps size-class upper bounds (bytes, ascending) to the
	// latency (s) used for messages up to that size; the last entry
	// covers everything larger.
	Steps []ChunStep
}

// ChunStep is one size-class latency entry.
type ChunStep struct {
	MaxSize int     // class upper bound (bytes); last step may be 0 = ∞
	Alpha   float64 // latency for this class (s)
}

// Name implements Model.
func (c Chun) Name() string { return "chun-size-dependent-latency" }

// latencyFor picks the class latency for size m.
func (c Chun) latencyFor(m int) float64 {
	for _, s := range c.Steps {
		if s.MaxSize == 0 || m <= s.MaxSize {
			return s.Alpha
		}
	}
	if len(c.Steps) > 0 {
		return c.Steps[len(c.Steps)-1].Alpha
	}
	return 0
}

// Predict implements Model.
func (c Chun) Predict(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * (c.latencyFor(m) + c.Beta*float64(m))
}

// TwoBeta is the Section 6 throughput-under-contention approach: blend a
// contention-free gap βF and a contended gap βC measured from a network
// saturation probe into a synthetic β = (1−ρ)·βF + ρ·βC, then evaluate
// the lower bound with it. The paper uses ρ = 0.5 ("at most one of each
// two connections will be delayed due to contention").
type TwoBeta struct {
	Alpha float64
	BetaF float64 // contention-free gap (s/B)
	BetaC float64 // contended gap (s/B)
	Rho   float64 // contended fraction, 0.5 in the paper
}

// Name implements Model.
func (t TwoBeta) Name() string { return "two-beta-throughput" }

// SyntheticBeta returns (1−ρ)·βF + ρ·βC.
func (t TwoBeta) SyntheticBeta() float64 { return (1-t.Rho)*t.BetaF + t.Rho*t.BetaC }

// Predict implements Model.
func (t TwoBeta) Predict(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n-1) * (t.Alpha + t.SyntheticBeta()*float64(m))
}

// Signature is the paper's contention signature model (Section 7):
//
//	T(n, m) = (n−1)·(α + mβ)·γ               if m < M
//	T(n, m) = (n−1)·((α + mβ)·γ + δ)         if m ≥ M
//
// γ is the contention ratio between real performance and the lower
// bound; δ is the per-simultaneous-communication start-up overload
// (the paper's Fast Ethernet reading: "each simultaneous communication
// induces an overload of 8.23 ms"); M is the message-size threshold
// above which δ applies. The parameters characterize the network, not
// the process count, so one fit extrapolates across n.
type Signature struct {
	H       Hockney
	Gamma   float64
	Delta   float64 // seconds per simultaneous communication
	M       int     // δ activation threshold (bytes); 0 applies δ always
	SampleN int     // process count n' used when fitting (informational)
}

// Name implements Model.
func (s Signature) Name() string { return "contention-signature" }

// Predict implements Model.
func (s Signature) Predict(n, m int) float64 {
	if n <= 1 {
		return 0
	}
	t := LowerBound(s.H, n, m) * s.Gamma
	if m >= s.M {
		t += float64(n-1) * s.Delta
	}
	return t
}

// String renders the signature like the paper reports it.
func (s Signature) String() string {
	return fmt.Sprintf("γ=%.4f δ=%.3fms M=%dB (fit at n'=%d)",
		s.Gamma, s.Delta*1e3, s.M, s.SampleN)
}
