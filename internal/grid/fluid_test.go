package grid

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/obs"
	"repro/internal/sim"
)

// fluidCfg is the default fluid engine selection used by these tests.
func fluidCfg() SimConfig {
	return SimConfig{Mode: sim.ModeFluid}
}

// TestFluidPacketAgreement is the fluid-vs-packet agreement table:
// above the fallback threshold, the analytic flow pricer must land
// within the model's existing acceptance envelope of the packet engine
// (docs/MODEL.md reports ~31% mean magnitude error for the analytic
// planner itself, with worst rows above 100%; single lossy-TCP runs are
// RTO-noisy, so rows average two seeds exactly as
// rankingMatchesSimulation does). Individual rows can still sit one
// ~200 ms LAN-incast RTO away from their twin — side-by-side engine
// traces show gather legs entering the measured rep from near-identical
// congestion windows and diverging only on whether one microsecond of
// timing skew tips a tail-drop into a timeout — so each row gets a 50%
// ceiling while the table mean must stay within 20%, both well inside
// the model's own documented envelope.
func TestFluidPacketAgreement(t *testing.T) {
	topos := map[string]cluster.TopoNode{
		"2lvl": testTopo(),
		"3lvl": cluster.ThreeLevel("t3", wanTunedGE(), 2, 2, 2,
			cluster.DefaultWAN(30*sim.Millisecond), cluster.DefaultWAN(10*sim.Millisecond)),
	}
	seeds := []int64{7, 19}
	var sumAbs float64
	var rows int
	for name, topo := range topos {
		for _, m := range []int{64 << 10, 256 << 10} {
			for _, st := range Strategies {
				var pt, ft float64
				for _, seed := range seeds {
					w := coll.Uniform(coll.KindAlltoall, m)
					sr := SimRun{Seed: seed, Warmup: 1, Reps: 1}
					p, err := Run(topo, w, st, sr)
					if err != nil {
						t.Fatal(err)
					}
					sr.Sim = fluidCfg()
					f, err := Run(topo, w, st, sr)
					if err != nil {
						t.Fatal(err)
					}
					pt += p.T
					ft += f.T
				}
				relErr := (ft - pt) / pt
				t.Logf("%s m=%dk %-12s packet=%.4fs fluid=%.4fs err=%+.1f%%",
					name, m>>10, st, pt/2, ft/2, 100*relErr)
				if math.Abs(relErr) > 0.50 {
					t.Errorf("%s m=%d %v: fluid deviates %+.1f%% from packet (limit 50%%)",
						name, m, st, 100*relErr)
				}
				sumAbs += math.Abs(relErr)
				rows++
			}
		}
	}
	if mean := sumAbs / float64(rows); mean > 0.20 {
		t.Errorf("mean |error| over %d rows = %.1f%%, limit 20%%", rows, 100*mean)
	}
}

// TestFluidPlannerRankingPreserved pins fit transfer: a planner
// characterized under fluid mode must reproduce the packet-fitted
// planner's predictions — per-strategy times within 10%, the same
// predicted order, the same Best — across the size sweep. (The
// planner's accuracy against packet ground truth is the acceptance
// suite's job; what fluid mode must not do is change the fit.)
// StableSpread is tightened below the default 0.5 because the
// hier-gather probe grid sits on a LAN-incast RTO knife-edge (roughly
// 2 in 5 seeds hit a ~200 ms timeout in either engine, on
// engine-dependent seeds): the default gate can accept an initial
// seed trio whose median is the RTO mode, while the full five-seed
// schedule puts the median on the clean mode for both engines.
func TestFluidPlannerRankingPreserved(t *testing.T) {
	popt := cheapOptions()
	popt.StableSpread = 0.25
	pp, err := NewPlanner(testTopo(), popt)
	if err != nil {
		t.Fatal(err)
	}
	fopt := cheapOptions()
	fopt.StableSpread = 0.25
	fopt.SimMode = sim.ModeFluid
	fp, err := NewPlanner(testTopo(), fopt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{64 << 10, 128 << 10, 256 << 10, 512 << 10} {
		pPred := map[Strategy]float64{}
		for _, pr := range pp.Predict(m) {
			pPred[pr.Strategy] = pr.T
		}
		pOrder, fOrder := pp.Predict(m), fp.Predict(m)
		for i, pr := range fOrder {
			want := pPred[pr.Strategy]
			if rel := math.Abs(pr.T-want) / want; rel > 0.10 {
				t.Errorf("m=%d %v: fluid-fit predicts %.4fs, packet-fit %.4fs (%.1f%% apart)",
					m, pr.Strategy, pr.T, want, 100*rel)
			}
			if pr.Strategy != pOrder[i].Strategy {
				t.Errorf("m=%d: predicted order differs at position %d: fluid %v, packet %v",
					m, i, pr.Strategy, pOrder[i].Strategy)
			}
		}
		if pb, fb := pp.Best(m).Strategy, fp.Best(m).Strategy; pb != fb {
			t.Errorf("m=%d: Best differs: fluid-fit %v, packet-fit %v", m, fb, pb)
		}
	}
}

// TestFluidFingerprintDistinct pins that fluid-fitted stores cannot be
// silently reused by packet-mode planners and vice versa.
func TestFluidFingerprintDistinct(t *testing.T) {
	packet := cheapOptions().withDefaults()
	fluid := cheapOptions()
	fluid.SimMode = sim.ModeFluid
	fluidOpt := fluid.withDefaults()
	if packet.fingerprint() == fluidOpt.fingerprint() {
		t.Fatal("packet and fluid Options share a store fingerprint")
	}
	// Workers and CacheCap are execution knobs, not fit parameters:
	// they must not split the store.
	w := cheapOptions()
	w.Workers = 7
	w.CacheCap = 3
	if w.withDefaults().fingerprint() != packet.fingerprint() {
		t.Fatal("Workers/CacheCap leaked into the store fingerprint")
	}
}

// TestProbePoolBitIdentity is the parallel-vs-sequential pin: a planner
// characterized with a 4-worker probe pool must be bit-identical to the
// sequential build — same model, same probe stats, same serialized
// store bytes.
func TestProbePoolBitIdentity(t *testing.T) {
	build := func(workers int) (*Planner, []byte) {
		opt := cheapOptions()
		opt.Workers = workers
		st := NewCurveStore()
		pl, err := newPlannerWithStore(testTopo(), opt.withDefaults(), st)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return pl, buf.Bytes()
	}
	seqPl, seqJSON := build(1)
	parPl, parJSON := build(4)
	if !reflect.DeepEqual(seqPl.Model, parPl.Model) {
		t.Fatal("4-worker model differs from sequential")
	}
	if !reflect.DeepEqual(seqPl.ProbeStats, parPl.ProbeStats) {
		t.Fatalf("probe stats differ:\nseq: %+v\npar: %+v", seqPl.ProbeStats, parPl.ProbeStats)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("4-worker store serialization differs from sequential")
	}
}

// TestProbePoolFluidBitIdentity repeats the pin under fluid mode, where
// per-probe wall clock is short enough that scheduling skew between
// workers would surface any order dependence.
func TestProbePoolFluidBitIdentity(t *testing.T) {
	build := func(workers int) *Planner {
		opt := cheapOptions()
		opt.Workers = workers
		opt.SimMode = sim.ModeFluid
		pl, err := NewPlanner(testTopo(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	seq, par := build(1), build(4)
	if !reflect.DeepEqual(seq.Model, par.Model) {
		t.Fatal("fluid 4-worker model differs from sequential")
	}
}

// TestProbePoolRaceWithTrace drives a 4-worker characterization with a
// live trace collector attached — the configuration the -race CI job
// exercises: concurrent probe simulations share only the thread-safe
// collector, and the fitted result must still be deterministic.
func TestProbePoolRaceWithTrace(t *testing.T) {
	opt := cheapOptions()
	opt.Workers = 4
	opt.Trace = obs.New()
	pl, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewPlanner(testTopo(), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pl.Model, plain.Model) {
		t.Fatal("traced 4-worker model differs from untraced sequential")
	}
	if counterValue(opt.Trace, CtrProbes) == 0 {
		t.Fatalf("%s = 0 after a traced parallel build", CtrProbes)
	}
}
