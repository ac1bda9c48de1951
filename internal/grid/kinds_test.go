package grid

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// suiteKinds are the collective kinds beyond All-to-All(v) the planner
// prices through the per-kind model.
var suiteKinds = []coll.Kind{
	coll.KindAllgather, coll.KindBroadcast, coll.KindReduce,
	coll.KindReduceScatter, coll.KindAllreduce,
}

// TestServicePredictKindAlltoallDelegates pins the suite's bit-identity
// anchor: PredictKind(KindAlltoall) and SelectCoordinatorsKind
// (KindAlltoall) are the pre-suite Predict/SelectCoordinators answers,
// bit for bit, and never fit a per-kind correction.
func TestServicePredictKindAlltoallDelegates(t *testing.T) {
	pl, err := NewPlanner(testTopo(), cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{8 << 10, 64 << 10, 256 << 10} {
		kp, err := pl.PredictKind(coll.KindAlltoall, m)
		if err != nil {
			t.Fatal(err)
		}
		want := pl.Predict(m)
		if len(kp) != len(want) {
			t.Fatalf("m=%d: %d kind predictions, want %d", m, len(kp), len(want))
		}
		for i := range want {
			if kp[i] != want[i] {
				t.Fatalf("m=%d: PredictKind[%d] = %+v, Predict = %+v", m, i, kp[i], want[i])
			}
		}
	}
	for _, ps := range pl.ProbeStats {
		if ps.Stage == "kind" {
			t.Fatalf("alltoall predictions fitted a per-kind correction: %+v", ps)
		}
	}
	if _, err := pl.PredictKind(coll.KindAlltoallv, 4<<10); err == nil {
		t.Fatal("PredictKind(KindAlltoallv) did not reject the size-bound kind")
	}
}

// TestServicePredictKindWarmMatchesCold extends the warm-vs-cold
// bit-identity property to the collective suite: a service answering
// per-kind predictions from a JSON-round-tripped store reproduces a
// cold planner's predictions exactly, without one probe simulation —
// the per-kind correction curves persist like every other fitted
// record.
func TestServicePredictKindWarmMatchesCold(t *testing.T) {
	topo := testTopo()
	opt := cheapOptions()
	const m = 48 << 10

	cold, err := NewPlanner(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	coldPreds := map[coll.Kind][]Prediction{}
	for _, k := range suiteKinds {
		p, err := cold.PredictKind(k, m)
		if err != nil {
			t.Fatal(err)
		}
		coldPreds[k] = p
	}

	// Fill a store through a service, then round-trip it through JSON.
	fill, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range suiteKinds {
		if _, err := fill.PredictKind(topo, k, m); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := fill.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := ReadCurveStore(&buf)
	if err != nil {
		t.Fatal(err)
	}

	wopt := opt
	wopt.Trace = obs.New()
	warm, err := NewServiceWithStore(wopt, st)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range suiteKinds {
		got, err := warm.PredictKind(topo, k, m)
		if err != nil {
			t.Fatal(err)
		}
		want := coldPreds[k]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: warm prediction %d = %+v, cold = %+v", k, i, got[i], want[i])
			}
		}
	}
	if probes := counterValue(wopt.Trace, CtrProbes); probes != 0 {
		t.Fatalf("warm per-kind predictions ran %d probe simulations, want 0", probes)
	}
	if misses := counterValue(wopt.Trace, CtrStoreMiss); misses != 0 {
		t.Fatalf("warm per-kind predictions missed the store %d times, want 0", misses)
	}
	if hits := counterValue(wopt.Trace, CtrStoreHit); hits == 0 {
		t.Fatal("warm per-kind predictions recorded no store hits")
	}
}

// TestServiceKindPredictionsRankHierOnWAN sanity-checks the suite's
// output shape on the two-cluster WAN grid: every kind yields both
// candidate strategies with positive times, sorted fastest first.
func TestServiceKindPredictionsRankHierOnWAN(t *testing.T) {
	svc, err := NewService(cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range suiteKinds {
		preds, err := svc.PredictKind(testTopo(), k, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		if len(preds) != len(StrategiesFor(k)) {
			t.Fatalf("%v: %d predictions, want %d", k, len(preds), len(StrategiesFor(k)))
		}
		for _, p := range preds {
			if p.T <= 0 {
				t.Fatalf("%v: nonpositive prediction %+v", k, p)
			}
		}
		if preds[0].T > preds[1].T {
			t.Fatalf("%v: predictions not sorted: %+v", k, preds)
		}
	}
}

// TestServiceSelectCoordinatorsKind runs kind-priced coordinator
// selection end to end: one choice per leaf, coordinators within node
// bounds, and the alltoall path identical to plain SelectCoordinators.
func TestServiceSelectCoordinatorsKind(t *testing.T) {
	topo := heteroTestTopo(3)
	svc, err := NewService(cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	const m = 64 << 10
	choices, err := svc.SelectCoordinatorsKind(topo, coll.KindReduce, m)
	if err != nil {
		t.Fatal(err)
	}
	leaves := topo.Leaves()
	if len(choices) != len(leaves) {
		t.Fatalf("%d choices for %d leaves", len(choices), len(leaves))
	}
	for i, ch := range choices {
		if len(ch.Ranks) == 0 {
			t.Fatalf("leaf %d: empty coordinator set", i)
		}
		for _, cd := range ch.Local {
			if cd < 0 || cd >= leaves[i].Nodes {
				t.Fatalf("leaf %d: coordinator %d out of range [0,%d)", i, cd, leaves[i].Nodes)
			}
		}
	}

	svcA, err := NewService(cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	svcB, err := NewService(cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	viaKind, err := svcA.SelectCoordinatorsKind(topo, coll.KindAlltoall, m)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := svcB.SelectCoordinators(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaKind) != len(plain) {
		t.Fatalf("%d kind choices vs %d plain", len(viaKind), len(plain))
	}
	for i := range plain {
		if viaKind[i].String() != plain[i].String() {
			t.Fatalf("leaf %d: kind-path choice %v != plain choice %v", i, viaKind[i], plain[i])
		}
	}
}

// TestKindFailoverOnPlannedSpec executes suite kinds under the
// epoch-failover runtime on a planner-selected spec with a mid-run node
// death: the run completes, the victim is declared dead, and the kind's
// exactly-once delivery invariants verify among survivors.
func TestKindFailoverOnPlannedSpec(t *testing.T) {
	topo := testTopo()
	opt := cheapOptions()
	pl, err := NewPlanner(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.SelectCoordinators(32 << 10); err != nil {
		t.Fatal(err)
	}
	spec := pl.PlanSpec()
	victim := topo.TotalNodes() - 1 // a delegate: exercises non-coordinator death and quench
	for _, k := range []coll.Kind{coll.KindBroadcast, coll.KindAllgather, coll.KindAllreduce} {
		c := obs.New()
		g, err := cluster.BuildGridTree(topo, opt.Seed)
		if err != nil {
			t.Fatal(err)
		}
		hostName := g.Env.Hosts[victim].Name()
		fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{
			{Host: hostName, At: 15 * sim.Millisecond},
		}}
		res, tEnd, err := runFaulted(c, SimConfig{}, topo, spec, k,
			32<<10, opt.Seed, fs, 250*sim.Millisecond)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if tEnd <= 0 {
			t.Fatalf("%v: nonpositive completion time %v", k, tEnd)
		}
		if len(res.Dead) == 0 {
			t.Fatalf("%v: mid-run node death was never declared", k)
		}
		if res.DeliveredBlocks == 0 {
			t.Fatalf("%v: no blocks delivered among survivors", k)
		}
	}
}

// TestStoreSaveFileMergeUnions pins satellite SaveFile semantics: saving
// over an existing compatible store file merges instead of overwriting —
// disk-only records survive, shared keys take the in-memory value, and
// the write stays atomic (temp + rename).
func TestStoreSaveFileMergeUnions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "curves.json")

	a := NewCurveStore()
	if err := a.bind("opts-x"); err != nil {
		t.Fatal(err)
	}
	a.gammas.put(0, "G{tier-a}", model.ScalarFactor(2))
	a.gammas.put(0, "G{shared}", model.ScalarFactor(3))
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	b := NewCurveStore()
	if err := b.bind("opts-x"); err != nil {
		t.Fatal(err)
	}
	b.gammas.put(0, "K|broadcast|G{tier-b}", model.ScalarFactor(5))
	b.gammas.put(0, "G{shared}", model.ScalarFactor(7))
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCurveStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := got.gammas.get("G{tier-a}"); !ok || c.At(1) != 2 {
		t.Fatalf("disk-only record lost in merge: ok=%v curve=%+v", ok, c)
	}
	if c, ok := got.gammas.get("K|broadcast|G{tier-b}"); !ok || c.At(1) != 5 {
		t.Fatalf("in-memory kind record missing after merge: ok=%v curve=%+v", ok, c)
	}
	if c, ok := got.gammas.get("G{shared}"); !ok || c.At(1) != 7 {
		t.Fatalf("conflicting key did not take the in-memory value: ok=%v curve=%+v", ok, c)
	}
	// The in-memory store was not mutated by its own save.
	if _, ok := b.gammas.get("G{tier-a}"); ok {
		t.Fatal("SaveFile merged disk records into the in-memory store")
	}

	// A differently-fingerprinted file is replaced wholesale, as before.
	c2 := NewCurveStore()
	if err := c2.bind("opts-y"); err != nil {
		t.Fatal(err)
	}
	c2.gammas.put(0, "G{fresh}", model.ScalarFactor(9))
	if err := c2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCurveStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("incompatible save kept %d records, want 1 (wholesale replace)", got.Len())
	}
}

// TestStoreSaveFileMergeSkipsInvalidated pins the merge's interaction
// with Invalidate: a record deliberately dropped from the in-memory
// store is not resurrected from an older on-disk snapshot when saving.
func TestStoreSaveFileMergeSkipsInvalidated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "curves.json")

	a := NewCurveStore()
	if err := a.bind("opts-x"); err != nil {
		t.Fatal(err)
	}
	a.gammas.put(0, "G{stale-tier}", model.ScalarFactor(2))
	a.gammas.put(0, "K|reduce|G{stale-tier}", model.ScalarFactor(4))
	a.gammas.put(0, "G{live-tier}", model.ScalarFactor(3))
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	b, err := LoadCurveStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Invalidate("G{stale-tier}"); n != 2 {
		t.Fatalf("Invalidate dropped %d records, want 2", n)
	}
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCurveStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.gammas.get("G{stale-tier}"); ok {
		t.Fatal("invalidated γ record resurrected from the on-disk snapshot")
	}
	if _, ok := got.gammas.get("K|reduce|G{stale-tier}"); ok {
		t.Fatal("invalidated per-kind record resurrected from the on-disk snapshot")
	}
	if _, ok := got.gammas.get("G{live-tier}"); !ok {
		t.Fatal("unrelated record lost while skipping invalidated ones")
	}

	// Corrupt file: the save replaces it instead of failing the merge.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCurveStoreFile(path); err != nil {
		t.Fatalf("save over a corrupt file left it unloadable: %v", err)
	}
}

// TestKindTracedValidationEmitsSpan pins the simulate.kind span and its
// counter routing: a traced per-kind validation run counts under
// planner.validations, never planner.probes.
func TestKindTracedValidationEmitsSpan(t *testing.T) {
	topo := testTopo()
	opt := cheapOptions()
	pl, err := NewPlanner(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.New()
	spec := pl.PlanSpec()
	res, err := Run(topo, coll.Uniform(coll.KindAllreduce, 32<<10), HierGather,
		SimRun{Trace: c, Seed: opt.Seed, Reps: 1, Spec: &spec, Phases: true})
	if err != nil {
		t.Fatal(err)
	}
	tt, spans := res.T, res.Phases
	if tt <= 0 {
		t.Fatalf("nonpositive traced time %v", tt)
	}
	if len(spans) == 0 {
		t.Fatal("traced kind run recorded no phase spans")
	}
	found := false
	for _, ln := range c.Outline() {
		if bytes.Contains([]byte(ln), []byte(SpanSimulateKind)) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("trace outline has no %s span", SpanSimulateKind)
	}
	if got := counterValue(c, CtrProbes); got != 0 {
		t.Fatalf("traced kind validation counted %d probes, want 0", got)
	}
	if got := counterValue(c, CtrValidations); got == 0 {
		t.Fatal("traced kind validation did not count under planner.validations")
	}
}
