package model

import (
	"math"
	"testing"
	"testing/quick"
)

var h = Hockney{Alpha: 50e-6, Beta: 8.5e-9}

func TestLowerBoundPaperForm(t *testing.T) {
	// Proposition 1: (n-1)·α + (n-1)·m·β.
	n, m := 40, 1<<20
	want := 39*50e-6 + 39*8.5e-9*float64(m)
	if got := LowerBound(h, n, m); math.Abs(got-want) > 1e-9 {
		t.Fatalf("LowerBound = %v, want %v", got, want)
	}
	if LowerBound(h, 1, m) != 0 || LowerBound(h, 0, m) != 0 {
		t.Fatal("lower bound for n<=1 must be 0")
	}
}

func TestNaiveEqualsLowerBound(t *testing.T) {
	d := Naive{H: h}
	for _, n := range []int{2, 10, 40} {
		for _, m := range []int{1, 1024, 1 << 20} {
			if d.Predict(n, m) != LowerBound(h, n, m) {
				t.Fatalf("naive(%d,%d) != lower bound", n, m)
			}
		}
	}
}

func TestClementScalesWithN(t *testing.T) {
	c := Clement{H: h}
	// For the same total rounds, doubling n must more than double the
	// prediction because γ=n multiplies the bandwidth term.
	m := 1 << 20
	t8, t16 := c.Predict(8, m), c.Predict(16, m)
	if t16 <= 2*t8 {
		t.Fatalf("clement not superlinear in n: t8=%v t16=%v", t8, t16)
	}
}

func TestChunStepsSelection(t *testing.T) {
	c := Chun{
		Beta: 8.5e-9,
		Steps: []ChunStep{
			{MaxSize: 1024, Alpha: 60e-6},
			{MaxSize: 65536, Alpha: 200e-6},
			{MaxSize: 0, Alpha: 900e-6},
		},
	}
	if got := c.latencyFor(512); got != 60e-6 {
		t.Fatalf("latencyFor(512) = %v", got)
	}
	if got := c.latencyFor(1024); got != 60e-6 {
		t.Fatalf("latencyFor(1024) = %v (inclusive bound)", got)
	}
	if got := c.latencyFor(2048); got != 200e-6 {
		t.Fatalf("latencyFor(2048) = %v", got)
	}
	if got := c.latencyFor(1 << 20); got != 900e-6 {
		t.Fatalf("latencyFor(1MB) = %v", got)
	}
	if c.Predict(2, 512) != 60e-6+8.5e-9*512 {
		t.Fatal("Chun predict wrong")
	}
}

func TestTwoBetaPaperNumbers(t *testing.T) {
	// Section 6's worked example: βF=8.502e-9, βC=8.498189e-8, ρ=0.5
	// gives β≈4.6742e-8.
	tb := TwoBeta{Alpha: 50e-6, BetaF: 8.502e-9, BetaC: 8.498189e-8, Rho: 0.5}
	if math.Abs(tb.SyntheticBeta()-4.6742e-8) > 1e-12 {
		t.Fatalf("synthetic β = %v, want 4.6742e-8", tb.SyntheticBeta())
	}
	// Prediction reproduces the paper's form: (n-1)(α + β̂m).
	n, m := 40, 1<<20
	want := 39 * (50e-6 + 4.674194500000001e-8*float64(m))
	if got := tb.Predict(n, m); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("two-beta predict = %v, want %v", got, want)
	}
}

func TestSignaturePiecewise(t *testing.T) {
	s := Signature{H: h, Gamma: 4.3628, Delta: 4.93e-3, M: 8 << 10}
	n := 40
	below := s.Predict(n, 4<<10)
	if math.Abs(below-LowerBound(h, n, 4<<10)*4.3628) > 1e-12 {
		t.Fatalf("below M: got %v", below)
	}
	at := s.Predict(n, 8<<10)
	wantAt := LowerBound(h, n, 8<<10)*4.3628 + 39*4.93e-3
	if math.Abs(at-wantAt) > 1e-12 {
		t.Fatalf("at M: got %v, want %v", at, wantAt)
	}
	// δ adds exactly (n-1)·δ at the threshold.
	if math.Abs((at-LowerBound(h, n, 8<<10)*4.3628)-39*4.93e-3) > 1e-12 {
		t.Fatal("δ term wrong")
	}
}

func TestSignatureGammaOneDeltaZeroIsLowerBound(t *testing.T) {
	s := Signature{H: h, Gamma: 1, Delta: 0, M: 0}
	for _, n := range []int{2, 24, 50} {
		for _, m := range []int{128, 1 << 20} {
			if math.Abs(s.Predict(n, m)-LowerBound(h, n, m)) > 1e-15 {
				t.Fatalf("identity signature deviates at n=%d m=%d", n, m)
			}
		}
	}
}

func TestModelsMonotoneInSizeAndRanks(t *testing.T) {
	models := []Model{
		Naive{H: h},
		Clement{H: h},
		TwoBeta{Alpha: h.Alpha, BetaF: h.Beta, BetaC: 10 * h.Beta, Rho: 0.5},
		Signature{H: h, Gamma: 2.5, Delta: 1e-3, M: 2048},
	}
	prop := func(n8, dn8 uint8, m16, dm16 uint16) bool {
		n := int(n8%48) + 2
		dn := int(dn8 % 8)
		m := int(m16) + 1
		dm := int(dm16)
		for _, mod := range models {
			if mod.Predict(n+dn, m) < mod.Predict(n, m)-1e-12 {
				return false
			}
			if mod.Predict(n, m+dm) < mod.Predict(n, m)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if s := h.String(); s == "" {
		t.Fatal("empty Hockney string")
	}
	sig := Signature{H: h, Gamma: 1.0195, Delta: 8.23e-3, M: 2048, SampleN: 24}
	if s := sig.String(); s == "" {
		t.Fatal("empty Signature string")
	}
	for _, m := range []Model{Naive{}, Clement{}, Chun{}, TwoBeta{}, Signature{}} {
		if m.Name() == "" {
			t.Fatalf("%T has empty name", m)
		}
	}
}
