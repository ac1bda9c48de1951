package grid

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// counterValue reads one aggregate counter off a collector (0 when the
// counter was never fed).
func counterValue(c *obs.Collector, name string) uint64 {
	for _, cv := range c.Counters() {
		if cv.Name == name {
			return cv.Value
		}
	}
	return 0
}

// fuzzTopo derives a small random topology from rng: 2–3 clusters of
// 2–4 nodes over a randomized WAN latency, occasionally three levels.
// Everything downstream must hold for whatever this returns.
func fuzzTopo(rng *rand.Rand) cluster.TopoNode {
	lat := sim.Time(10+rng.Intn(30)) * sim.Millisecond
	if rng.Intn(3) == 0 {
		inner := sim.Time(5+rng.Intn(10)) * sim.Millisecond
		return cluster.ThreeLevel("fuzz3", wanTunedGE(), 2, 2, 2,
			cluster.DefaultWAN(inner), cluster.DefaultWAN(lat))
	}
	clusters := 2 + rng.Intn(2)
	nodes := 2 + rng.Intn(3)
	return cluster.Uniform("fuzz", wanTunedGE(), clusters, nodes, cluster.DefaultWAN(lat)).Tree()
}

// fuzzMatrix derives a random irregular size matrix over n ranks.
func fuzzMatrix(rng *rand.Rand, n int) coll.SizeMatrix {
	sz := coll.NewSizeMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sz.Set(i, j, rng.Intn(96<<10))
			}
		}
	}
	return sz
}

// TestServiceWarmMatchesColdPlanner is the tentpole property test: over
// fuzzed topologies and size matrices, a service answering from a warm
// store predicts bit-identically to a cold single-shot NewPlanner — and
// does so without running a single probe simulation (planner.probes = 0,
// store.miss = 0 on the warm build).
func TestServiceWarmMatchesColdPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	msgs := []int{8 << 10, 48 << 10, 200 << 10}
	for trial := 0; trial < 3; trial++ {
		topo := fuzzTopo(rng)
		opt := cheapOptions()

		cold, err := NewPlanner(topo, opt)
		if err != nil {
			t.Fatal(err)
		}

		// First service call characterizes and fills the store...
		warmSvc, err := NewService(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warmSvc.Predict(topo, msgs[0]); err != nil {
			t.Fatal(err)
		}
		// ...a second service over the same store must answer from it.
		wopt := opt
		wopt.Trace = obs.New()
		svc, err := NewServiceWithStore(wopt, warmSvc.Store())
		if err != nil {
			t.Fatal(err)
		}
		sz := fuzzMatrix(rng, topo.TotalNodes())
		for _, m := range msgs {
			warm, err := svc.Predict(topo, m)
			if err != nil {
				t.Fatal(err)
			}
			coldP := cold.Predict(m)
			for i := range coldP {
				if warm[i] != coldP[i] {
					t.Fatalf("trial %d m=%d: warm prediction %d = %+v, cold = %+v",
						trial, m, i, warm[i], coldP[i])
				}
			}
		}
		warmV, err := svc.PredictV(topo, sz)
		if err != nil {
			t.Fatal(err)
		}
		coldV := cold.PredictV(sz)
		for i := range coldV {
			if warmV[i] != coldV[i] {
				t.Fatalf("trial %d: warm PredictV %d = %+v, cold = %+v", trial, i, warmV[i], coldV[i])
			}
		}
		if probes := counterValue(wopt.Trace, CtrProbes); probes != 0 {
			t.Fatalf("trial %d: warm build ran %d probe simulations, want 0", trial, probes)
		}
		if misses := counterValue(wopt.Trace, CtrStoreMiss); misses != 0 {
			t.Fatalf("trial %d: warm build missed the store %d times, want 0", trial, misses)
		}
		if hits := counterValue(wopt.Trace, CtrStoreHit); hits == 0 {
			t.Fatalf("trial %d: warm build recorded no store hits", trial)
		}
	}
}

// TestServiceSingleFlight pins the single-flight guarantee: N
// simultaneous PlannerFor calls for one topology build one planner —
// every caller gets the same *Planner, and the probe counter matches a
// solo build's exactly (concurrency added zero probe simulations).
func TestServiceSingleFlight(t *testing.T) {
	opt := cheapOptions()
	opt.Trace = obs.New()
	solo, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.PlannerFor(testTopo()); err != nil {
		t.Fatal(err)
	}
	want := counterValue(opt.Trace, CtrProbes)
	if want == 0 {
		t.Fatal("solo build ran no probes — baseline is broken")
	}

	opt.Trace = obs.New()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	planners := make([]*Planner, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pl, err := svc.PlannerFor(testTopo())
			if err != nil {
				t.Error(err)
				return
			}
			planners[i] = pl
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if planners[i] != planners[0] {
			t.Fatalf("caller %d got a different planner instance", i)
		}
	}
	if got := counterValue(opt.Trace, CtrProbes); got != want {
		t.Fatalf("%d concurrent callers ran %d probes, solo build runs %d — characterization was not single-flight",
			callers, got, want)
	}
	if svc.Len() != 1 {
		t.Fatalf("service caches %d planners, want 1", svc.Len())
	}
}

// TestServiceStress is the -race harness: goroutines × topologies
// hammering Predict/PredictV/Best/SelectCoordinators/Invalidate/
// PlannerFor concurrently. Correctness here is "no data race, no
// panic, no error, sane outputs" — the bit-identity properties are
// pinned by the deterministic tests above.
func TestServiceStress(t *testing.T) {
	topos := []cluster.TopoNode{
		testTopo(),
		heteroTestTopo(3),
		cluster.Uniform("stress-3c", wanTunedGE(), 3, 2, cluster.DefaultWAN(15*sim.Millisecond)).Tree(),
	}
	opt := cheapOptions()
	opt.Trace = obs.New()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	tier := TierKey(topos[0])

	const workers = 4
	const opsPerWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < opsPerWorker; i++ {
				topo := topos[rng.Intn(len(topos))]
				switch rng.Intn(6) {
				case 0:
					if _, err := svc.PlannerFor(topo); err != nil {
						t.Error(err)
					}
				case 1:
					preds, err := svc.Predict(topo, 32<<10)
					if err != nil {
						t.Error(err)
					} else if len(preds) != len(Strategies) {
						t.Errorf("%d predictions, want %d", len(preds), len(Strategies))
					}
				case 2:
					best, err := svc.Best(topo, 64<<10)
					if err != nil {
						t.Error(err)
					} else if best.T <= 0 {
						t.Errorf("nonpositive best prediction %+v", best)
					}
				case 3:
					sz := coll.UniformSizeMatrix(topo.TotalNodes(), 16<<10)
					if _, err := svc.PredictV(topo, sz); err != nil {
						t.Error(err)
					}
				case 4:
					if _, err := svc.SelectCoordinators(topo, 48<<10); err != nil {
						t.Error(err)
					}
				case 5:
					svc.Invalidate(tier)
				}
			}
		}(w)
	}
	wg.Wait()
	// The store must still round-trip after the pounding.
	var buf bytes.Buffer
	if err := svc.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCurveStore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// invalidateTestTopo is a 3-level tree whose two nation tiers differ
// (distinct WAN latencies), so their store records live under distinct
// keys and Invalidate of one must not touch the other.
func invalidateTestTopo() cluster.TopoNode {
	return cluster.Group("inv-root", cluster.DefaultWAN(40*sim.Millisecond),
		cluster.Group("nation-a", cluster.DefaultWAN(10*sim.Millisecond),
			cluster.Leaf(wanTunedGE(), 2), cluster.Leaf(wanTunedGE(), 2)),
		cluster.Group("nation-b", cluster.DefaultWAN(15*sim.Millisecond),
			cluster.Leaf(wanTunedGE(), 2), cluster.Leaf(wanTunedGE(), 2)))
}

// TestServiceInvalidateRefitsIncrementally pins the invalidation
// semantics end to end: dropping one nation tier kills exactly that
// tier's records, its ancestors' (the root tier, fitted through it) and
// the whole-tree strategy fits — the sibling nation and every leaf
// record survive, the rebuild re-probes only the dropped records
// (store.refit fires), and the refitted predictions are bit-identical
// to the originals (the underlying simulations are deterministic).
func TestServiceInvalidateRefitsIncrementally(t *testing.T) {
	topo := invalidateTestTopo()
	opt := cheapOptions()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	const m = 48 << 10
	before, err := svc.Predict(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	full := svc.Store().Len()

	nationA := topo.Children[0]
	dropped := svc.Invalidate(TierKey(nationA))
	// nation-a tier curve + its γ, root tier curve + its γ, and the
	// "S|" strategy record: exactly 5.
	if dropped != 5 {
		t.Fatalf("invalidate dropped %d records, want 5", dropped)
	}
	if got := svc.Store().Len(); got != full-dropped {
		t.Fatalf("store holds %d records after invalidate, want %d", got, full-dropped)
	}
	if svc.Len() != 0 {
		t.Fatalf("service still caches %d planners over the invalidated tier", svc.Len())
	}

	// Rebuild through a traced service sharing the store: only the five
	// dropped records may miss, and the build must flag itself as an
	// incremental refit.
	ropt := opt
	ropt.Trace = obs.New()
	rsvc, err := NewServiceWithStore(ropt, svc.Store())
	if err != nil {
		t.Fatal(err)
	}
	after, err := rsvc.Predict(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("incremental refit changed prediction %d: %+v -> %+v", i, before[i], after[i])
		}
	}
	if misses := counterValue(ropt.Trace, CtrStoreMiss); misses != 5 {
		t.Fatalf("incremental refit missed %d records, want exactly the 5 dropped", misses)
	}
	if hits := counterValue(ropt.Trace, CtrStoreHit); hits == 0 {
		t.Fatal("incremental refit reused nothing from the store")
	}
	if refits := counterValue(ropt.Trace, CtrStoreRefit); refits != 1 {
		t.Fatalf("store.refit = %d, want 1", refits)
	}
	if got := rsvc.Store().Len(); got != full {
		t.Fatalf("store holds %d records after refit, want %d restored", got, full)
	}
}

// TestStoreRoundTripBitIdentity pins the cross-process contract:
// serialize a characterized store, load it back, and a service over the
// loaded store predicts bit-identically without probing; re-saving the
// loaded store reproduces the file byte for byte.
func TestStoreRoundTripBitIdentity(t *testing.T) {
	topo := testTopo()
	opt := cheapOptions()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64 << 10
	want, err := svc.Predict(topo, m)
	if err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	if err := svc.SaveStore(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCurveStore(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("save -> load -> save did not reproduce the store file")
	}

	lopt := opt
	lopt.Trace = obs.New()
	lsvc, err := NewServiceWithStore(lopt, loaded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lsvc.Predict(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded-store prediction %d = %+v, original = %+v", i, got[i], want[i])
		}
	}
	if probes := counterValue(lopt.Trace, CtrProbes); probes != 0 {
		t.Fatalf("loaded store still ran %d probes", probes)
	}
}

// TestStoreRejectsVersionAndOptionMismatch covers the schema-version
// satellite: a serialized store from a different schema version or a
// different probe configuration must fail loudly, never mispredict
// silently.
func TestStoreRejectsVersionAndOptionMismatch(t *testing.T) {
	if _, err := ReadCurveStore(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("version 99 store loaded without error")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch error does not name the version: %v", err)
	}
	if _, err := ReadCurveStore(strings.NewReader(`{`)); err == nil {
		t.Fatal("truncated store loaded without error")
	}
	// Corrupt curve: mis-ordered factor points must fail validation.
	bad := `{"version": 1, "gammas": {"k": {"Points": [{"Bytes": 100, "Factor": 2}, {"Bytes": 50, "Factor": 3}]}}}`
	if _, err := ReadCurveStore(strings.NewReader(bad)); err == nil {
		t.Fatal("mis-ordered gamma curve loaded without error")
	}

	// A store fitted under one configuration must refuse another.
	opt := cheapOptions()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Predict(testTopo(), 32<<10); err != nil {
		t.Fatal(err)
	}
	other := opt
	other.Seed = opt.Seed + 1
	if _, err := NewServiceWithStore(other, svc.Store()); err == nil {
		t.Fatal("store fitted under seed 3 accepted a seed-4 service")
	} else if !strings.Contains(err.Error(), "options") {
		t.Fatalf("options mismatch error does not explain itself: %v", err)
	}
	// The planner-level path rejects it too.
	if _, err := newPlannerWithStore(testTopo(), other, svc.Store()); err == nil {
		t.Fatal("newPlannerWithStore accepted a mismatched store")
	}
}

// TestStoreGoldenFile pins the serialized schema byte-for-byte on a
// hand-built store (no simulation, so the golden is platform-stable):
// deterministic marshalling is what makes the cross-process bit-identity
// guarantee checkable at all. Refresh with -update after intentional
// schema changes — bumping StoreVersion alongside.
func TestStoreGoldenFile(t *testing.T) {
	h := model.Hockney{Alpha: 12e-6, Beta: 9.2e-9}
	st := NewCurveStore()
	st.optKey = "fitn=6 seed=3"
	st.leaves.put(0, "leaf-a", storedLeaf{
		Hockney:   h,
		Signature: model.Signature{H: h, Gamma: 1.5, Delta: 0.25},
	})
	st.headroom.put(0, "leaf-a|3", []float64{1.25e8, 1.25e8, 1.2e7})
	st.tiers.put(0, "G{tier}", storedTier{
		Curve:    []model.WANPoint{{Bytes: 2048, T: 0.021}, {Bytes: 1 << 20, T: 0.25}},
		BetaWire: 8.6e-9,
	})
	st.gammas.put(0, "G{tier}", model.CurveOf(model.FactorPoint{Bytes: 64 << 10, Factor: 2.5}))
	st.strategies.put(0, "S|G{tier}", storedStrategy{
		Omega: model.CurveOf(model.FactorPoint{Bytes: 64 << 10, Factor: 1.75}),
		Kappa: model.CurveOf(model.FactorPoint{Bytes: 64 << 10, Factor: 3.125}),
	})

	var got bytes.Buffer
	if err := st.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "store_v1.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("store serialization drifted from %s (run with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, got.Bytes(), want)
	}
	// The golden must load back and re-serialize identically.
	loaded, err := ReadCurveStore(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := loaded.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("golden store did not round-trip byte-identically")
	}
}

// TestServiceRejectsMalformedWorkloads pins the service's input
// boundary: requests are external input, so a workload that does not
// fit the topology comes back as coll.Workload.Validate's named error
// from every Predict*/Best*/SelectCoordinators* entry — never a panic
// inside the model, never a finite number for a negative size.
func TestServiceRejectsMalformedWorkloads(t *testing.T) {
	svc, err := NewService(cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	topo := testTopo() // 6 ranks
	short := coll.NewSizeMatrix(5)
	discard := func(_ interface{}, err error) error { return err }
	cases := []struct {
		name string
		call func() error
		want string
	}{
		{"PredictV wrong-rank matrix", func() error { return discard(svc.PredictV(topo, short)) }, "covers 5 ranks, topology has 6"},
		{"BestV wrong-rank matrix", func() error { return discard(svc.BestV(topo, short)) }, "covers 5 ranks, topology has 6"},
		{"SelectCoordinatorsV wrong-rank matrix", func() error { return discard(svc.SelectCoordinatorsV(topo, short)) }, "covers 5 ranks, topology has 6"},
		{"Predict negative m", func() error { return discard(svc.Predict(topo, -1)) }, "negative M -1"},
		{"Best negative m", func() error { return discard(svc.Best(topo, -1)) }, "negative M -1"},
		{"PredictKind negative m", func() error { return discard(svc.PredictKind(topo, coll.KindAllgather, -1)) }, "negative M -1"},
		{"SelectCoordinators negative m", func() error { return discard(svc.SelectCoordinators(topo, -1)) }, "negative M -1"},
		{"PredictKind alltoallv without matrix", func() error { return discard(svc.PredictKind(topo, coll.KindAlltoallv, 4<<10)) }, "no Sizes matrix"},
		{"BestKind alltoallv without matrix", func() error { return discard(svc.BestKind(topo, coll.KindAlltoallv, 4<<10)) }, "no Sizes matrix"},
		{"SelectCoordinatorsKind alltoallv without matrix", func() error { return discard(svc.SelectCoordinatorsKind(topo, coll.KindAlltoallv, 4<<10)) }, "no Sizes matrix"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: panicked: %v", tc.name, r)
				}
			}()
			if err := tc.call(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error = %v, want one naming %q", tc.name, err, tc.want)
			}
		}()
	}
	// The planner keeps "mismatch is a programming error", with the same
	// message.
	pl, err := svc.PlannerFor(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "covers 5 ranks, topology has 6") {
			t.Fatalf("Planner.PredictV on a wrong-rank matrix: recovered %v, want Validate's message", r)
		}
	}()
	pl.PredictV(short)
}
