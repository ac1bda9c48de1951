package calib

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/mpi"
)

func TestPingPongGigabitEthernet(t *testing.T) {
	h := PingPong(cluster.GigabitEthernet(), mpi.Config{}, 1, PingPongConfig{Reps: 3})
	// α must be on the tens-of-microseconds scale for switched GigE
	// (2 hops × 20 µs propagation + software overheads).
	if h.Alpha < 10e-6 || h.Alpha > 500e-6 {
		t.Fatalf("GigE α = %v s, want O(10µs..500µs)", h.Alpha)
	}
	// β must correspond to a bandwidth slightly below the 125 MB/s line
	// rate (header overhead) but above 80 MB/s.
	bw := 1 / h.Beta
	if bw < 80e6 || bw > 125e6 {
		t.Fatalf("GigE effective bandwidth = %.1f MB/s, want 80-125", bw/1e6)
	}
}

func TestPingPongOrdersNetworksCorrectly(t *testing.T) {
	fe := PingPong(cluster.FastEthernet(), mpi.Config{}, 1, PingPongConfig{Reps: 2})
	ge := PingPong(cluster.GigabitEthernet(), mpi.Config{}, 1, PingPongConfig{Reps: 2})
	my := PingPong(cluster.Myrinet(), mpi.Config{}, 1, PingPongConfig{Reps: 2})
	if !(fe.Beta > ge.Beta && ge.Beta > my.Beta) {
		t.Fatalf("β ordering wrong: FE=%v GigE=%v Myrinet=%v", fe.Beta, ge.Beta, my.Beta)
	}
	if !(my.Alpha < ge.Alpha) {
		t.Fatalf("Myrinet α (%v) should beat GigE (%v)", my.Alpha, ge.Alpha)
	}
}

func TestPingPongDeterministic(t *testing.T) {
	a := PingPong(cluster.Myrinet(), mpi.Config{}, 9, PingPongConfig{Reps: 2})
	b := PingPong(cluster.Myrinet(), mpi.Config{}, 9, PingPongConfig{Reps: 2})
	if a != b {
		t.Fatalf("nondeterministic calibration: %+v vs %+v", a, b)
	}
}

func TestSaturationProbeSingleConnection(t *testing.T) {
	r := SaturationProbe(cluster.GigabitEthernet(), 8, 1, 2<<20, 3)
	if len(r.Times) != 1 || r.Times[0] <= 0 {
		t.Fatalf("bad probe result: %+v", r)
	}
	// One connection must reach most of the line rate.
	if bw := r.AvgBandwidth(); bw < 80e6 {
		t.Fatalf("single-connection bandwidth %.1f MB/s too low", bw/1e6)
	}
}

func TestSaturationProbeBandwidthDropsWithLoad(t *testing.T) {
	// The Fig. 2 shape: average per-connection bandwidth collapses as
	// connection count grows.
	light := SaturationProbe(cluster.GigabitEthernet(), 16, 2, 2<<20, 4)
	heavy := SaturationProbe(cluster.GigabitEthernet(), 16, 40, 2<<20, 4)
	if heavy.AvgBandwidth() >= light.AvgBandwidth() {
		t.Fatalf("no saturation: light %.1f MB/s, heavy %.1f MB/s",
			light.AvgBandwidth()/1e6, heavy.AvgBandwidth()/1e6)
	}
	if heavy.AvgBandwidth() > light.AvgBandwidth()/2 {
		t.Fatalf("saturation too mild: light %.1f MB/s, heavy %.1f MB/s",
			light.AvgBandwidth()/1e6, heavy.AvgBandwidth()/1e6)
	}
}

func TestSaturationProbeStragglers(t *testing.T) {
	// The Fig. 3 shape: under heavy load some connections take
	// noticeably longer than the average (TCP loss recovery). Our
	// simulated tail is milder than the paper's up-to-6x outliers —
	// documented in EXPERIMENTS.md — but must be clearly present.
	heavy := SaturationProbe(cluster.GigabitEthernet(), 16, 40, 8<<20, 5)
	if heavy.MaxTime() < 1.35*heavy.MeanTime() {
		t.Fatalf("no straggler tail: max %.3fs vs mean %.3fs", heavy.MaxTime(), heavy.MeanTime())
	}
}

func TestExtractBetasOrdering(t *testing.T) {
	single := SaturationProbe(cluster.GigabitEthernet(), 16, 1, 2<<20, 6)
	heavy := SaturationProbe(cluster.GigabitEthernet(), 16, 40, 2<<20, 6)
	bf, bc := ExtractBetas(single, heavy)
	if bf <= 0 || bc <= bf {
		t.Fatalf("β ordering wrong: βF=%v βC=%v", bf, bc)
	}
	tb := TwoBetaModel(model.Hockney{Alpha: 50e-6, Beta: 8.5e-9}, single, heavy)
	if tb.Rho != 0.5 {
		t.Fatalf("ρ = %v, want paper's 0.5", tb.Rho)
	}
	if sb := tb.SyntheticBeta(); sb <= bf || sb >= bc {
		t.Fatalf("synthetic β %v not between βF %v and βC %v", sb, bf, bc)
	}
}
