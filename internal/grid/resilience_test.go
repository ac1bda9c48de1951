package grid

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// failoverSpec characterizes the two-level test grid and returns a plan
// spec with coordinators and standbys annotated, plus the name of the
// host backing rank 0 (leaf 0's default coordinator) for fault
// targeting.
func failoverSpec(t *testing.T, opt Options) (cluster.TopoNode, coll.TreeSpec, string) {
	t.Helper()
	topo := testTopo()
	pl, err := NewPlanner(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.SelectCoordinators(32 << 10); err != nil {
		t.Fatal(err)
	}
	spec := pl.PlanSpec()
	g, err := cluster.BuildGridTree(topo, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return topo, spec, g.Env.Hosts[0].Name()
}

// runFaulted executes one uniform hier-gather collective from an
// explicit spec under Run's epoch-failover mode.
func runFaulted(c *obs.Collector, sc SimConfig, topo cluster.TopoNode, spec coll.TreeSpec, kind coll.Kind, m int, seed int64, fs netsim.FaultSchedule, timeout sim.Time) (coll.FailoverResult, float64, error) {
	res, err := Run(topo, coll.Uniform(kind, m), HierGather,
		SimRun{Trace: c, Sim: sc, Seed: seed, Spec: &spec, Faults: &fs, Timeout: timeout})
	return res.Failover, res.T, err
}

// TestSimulateSpecFailoverEndToEnd: a planner-produced spec (standbys
// annotated by selection) survives losing leaf 0's coordinator mid-run
// in both engines — the run fails over, delivery verifies, and the
// declare/epoch telemetry lands on the collector.
func TestSimulateSpecFailoverEndToEnd(t *testing.T) {
	opt := cheapOptions()
	topo, spec, victim := failoverSpec(t, opt)
	if len(spec.Children) == 0 || len(spec.Children[0].Standbys) == 0 {
		t.Fatalf("plan spec carries no standbys: %+v", spec.Children)
	}
	fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{{Host: victim, At: 15 * sim.Millisecond}}}
	for _, sc := range []SimConfig{{Mode: sim.ModePacket}, {Mode: sim.ModeFluid}} {
		c := obs.New()
		res, tEnd, err := runFaulted(c, sc, topo, spec, coll.KindAlltoall,
			32<<10, opt.Seed, fs, 250*sim.Millisecond)
		if err != nil {
			t.Fatalf("%v: %v (result %+v)", sc.Mode, err, res)
		}
		if res.Epochs < 2 || len(res.Dead) != 1 || res.Dead[0] != 0 {
			t.Fatalf("%v: epochs=%d dead=%v, want a recovery epoch for rank 0", sc.Mode, res.Epochs, res.Dead)
		}
		if tEnd <= 0.015 {
			t.Fatalf("%v: finished at %.4fs, before the fault", sc.Mode, tEnd)
		}
		if got := counterValue(c, CtrFailoverDeclared); got != 1 {
			t.Fatalf("%v: %s = %d, want 1", sc.Mode, CtrFailoverDeclared, got)
		}
		if got := counterValue(c, CtrFailoverEpochs); got < 1 {
			t.Fatalf("%v: %s = %d, want >= 1", sc.Mode, CtrFailoverEpochs, got)
		}
		var sawDeclare bool
		for _, ev := range c.Events() {
			if ev.Name == EvFailoverDeclare {
				sawDeclare = true
			}
		}
		if !sawDeclare {
			t.Fatalf("%v: no %s event on the trace", sc.Mode, EvFailoverDeclare)
		}
	}
}

// TestSimulateSpecFailoverRejects covers the error paths: a schedule
// naming an unknown host, and a spec whose rank count does not match
// the topology.
func TestSimulateSpecFailoverRejects(t *testing.T) {
	opt := cheapOptions()
	topo, spec, _ := failoverSpec(t, opt)
	bad := netsim.FaultSchedule{Nodes: []netsim.NodeFault{{Host: "no-such-host", At: sim.Millisecond}}}
	if _, _, err := runFaulted(obs.New(), SimConfig{}, topo, spec, coll.KindAlltoall,
		1<<10, opt.Seed, bad, 0); err == nil || !strings.Contains(err.Error(), "unknown host") {
		t.Fatalf("unknown host not rejected: %v", err)
	}
	other := cluster.Uniform("t-other", wanTunedGE(), 2, 2, cluster.DefaultWAN(20*sim.Millisecond)).Tree()
	if _, _, err := runFaulted(obs.New(), SimConfig{}, other, spec, coll.KindAlltoall,
		1<<10, opt.Seed, netsim.FaultSchedule{}, 0); err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("rank mismatch not rejected: %v", err)
	}
}

// TestChaosDeterminism: the same fault schedule and seed produce a
// byte-identical NDJSON trace and an identical failover result on
// every run, in both engines — the property that makes chaos failures
// replayable.
func TestChaosDeterminism(t *testing.T) {
	opt := cheapOptions()
	topo, spec, victim := failoverSpec(t, opt)
	fs := netsim.GenFaultSchedule(99,
		[]string{}, []string{victim},
		netsim.FaultGenConfig{NodeLosses: 1, Horizon: 40 * sim.Millisecond})
	if len(fs.Nodes) != 1 {
		t.Fatalf("generator drew %+v", fs)
	}
	for _, sc := range []SimConfig{{Mode: sim.ModePacket}, {Mode: sim.ModeFluid}} {
		run := func() ([]byte, coll.FailoverResult, float64) {
			c := obs.New()
			c.SetClock(func() int64 { return 0 })
			res, tEnd, err := runFaulted(c, sc, topo, spec, coll.KindAlltoall,
				32<<10, opt.Seed, fs, 250*sim.Millisecond)
			if err != nil {
				t.Fatalf("%v: %v", sc.Mode, err)
			}
			var buf bytes.Buffer
			if err := c.WriteNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), res, tEnd
		}
		b1, r1, t1 := run()
		b2, r2, t2 := run()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%v: NDJSON traces differ across identical runs", sc.Mode)
		}
		if !reflect.DeepEqual(r1, r2) || t1 != t2 {
			t.Fatalf("%v: results differ: %+v @%v vs %+v @%v", sc.Mode, r1, t1, r2, t2)
		}
	}
}

// TestReportDeltaSkipsSmall: deviations inside DeltaThreshold are noise
// — nothing is invalidated, refitted, or re-ranked.
func TestReportDeltaSkipsSmall(t *testing.T) {
	topo := testTopo()
	svc, err := NewService(cheapOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Predict(topo, 32<<10); err != nil {
		t.Fatal(err)
	}
	records := svc.Store().Len()
	rep, err := svc.ReportDelta(topo, TierKey(topo.Children[0]), Delta{RateFactor: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Skipped || rep.DroppedRecords != 0 || rep.Predictions != nil {
		t.Fatalf("sub-threshold delta acted: %+v", rep)
	}
	if got := svc.Store().Len(); got != records {
		t.Fatalf("store went from %d to %d records on a skipped delta", records, got)
	}
	if svc.Len() != 1 {
		t.Fatalf("planner cache disturbed: %d entries", svc.Len())
	}

	// Garbage deltas are rejected by name before anything is invalidated.
	for _, tc := range []struct {
		d    Delta
		want string
	}{
		{Delta{RateFactor: math.NaN()}, "RateFactor"},
		{Delta{RateFactor: 0.5, Size: -1}, "Size"},
	} {
		rep, err := svc.ReportDelta(topo, TierKey(topo.Children[0]), tc.d)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%+v: replan %+v, error %v; want an error naming %s", tc.d, rep, err, tc.want)
		}
		if got := svc.Store().Len(); got != records {
			t.Fatalf("%+v: store went from %d to %d records on a rejected delta", tc.d, records, got)
		}
		if svc.Len() != 1 {
			t.Fatalf("%+v: planner cache disturbed: %d entries", tc.d, svc.Len())
		}
	}
}

// TestReportDeltaDegradedPortReplans is the GR6 planner-side property:
// a degraded NIC reported against its leaf tier invalidates exactly
// that characterization path, rebuilds warm (strictly fewer probes than
// a cold build, with store hits on the unaffected tiers), and the
// re-selection moves coordinators off the degraded node with standbys
// re-ranked.
func TestReportDeltaDegradedPortReplans(t *testing.T) {
	const m = 64 << 10
	healthy := cluster.Uniform("delta-grid", wanTunedGE(), 2, 4,
		cluster.DefaultWAN(20*sim.Millisecond)).Tree()
	// The same grid after the monitor saw cluster 0 node 0's NIC drop
	// to a tenth: one changed NodeLinkRates entry, which renames that
	// leaf's tier so stale curves cannot shadow current ones.
	degProfile := wanTunedGE()
	degProfile.Name = "ge-degraded-n0"
	degProfile.NodeLinkRates = []int64{12_500_000}
	degraded := healthy
	degraded.Children = append([]cluster.TopoNode(nil), healthy.Children...)
	degraded.Children[0] = cluster.Leaf(degProfile, 4)

	c := obs.New()
	opt := cheapOptions()
	opt.Trace = c
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SelectCoordinators(healthy, m); err != nil {
		t.Fatal(err)
	}
	warmProbes := counterValue(c, CtrProbes)
	warmHits := counterValue(c, CtrStoreHit)

	rep, err := svc.ReportDelta(degraded, TierKey(healthy.Children[0]),
		Delta{RateFactor: 0.1, Size: m, Source: "nic-monitor"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped || rep.DroppedRecords == 0 {
		t.Fatalf("degraded-port delta did not invalidate: %+v", rep)
	}
	if len(rep.Predictions) == 0 {
		t.Fatal("replan produced no ranking")
	}
	for _, ch := range rep.Choices {
		if ch.Leaf != 0 {
			continue
		}
		if ch.Default {
			t.Fatalf("leaf 0 kept the degraded default coordinator: %+v", ch)
		}
		for _, i := range ch.Local {
			if i == 0 {
				t.Fatalf("replan kept degraded node 0 as coordinator: %+v", ch)
			}
		}
		// The degraded node may remain a last-resort standby, but the
		// headroom ranking must put it behind every healthy node.
		for pos, i := range ch.Standby {
			if i == 0 && pos != len(ch.Standby)-1 {
				t.Fatalf("replan ranked degraded node 0 ahead of healthy standbys: %+v", ch)
			}
		}
	}
	// The replanned spec must carry the moved coordinator for leaf 0
	// (a default-kept leaf leaves Coords empty) and ranked standbys on
	// every leaf for the failover executor.
	if len(rep.Spec.Children[0].Coords) == 0 {
		t.Fatalf("degraded leaf's spec carries no explicit coordinator: %+v", rep.Spec.Children[0])
	}
	for _, child := range rep.Spec.Children {
		if len(child.Standbys) == 0 {
			t.Fatalf("replanned spec child missing standbys: %+v", child)
		}
	}
	replanProbes := counterValue(c, CtrProbes) - warmProbes
	replanHits := counterValue(c, CtrStoreHit) - warmHits
	if replanProbes == 0 {
		t.Fatal("replan ran no probes for the renamed degraded tier")
	}
	if replanHits == 0 {
		t.Fatal("replan hit nothing in the store: unaffected tiers were re-probed")
	}
	if got := counterValue(c, CtrStoreRefit); got == 0 {
		t.Fatalf("%s = 0, want a refit build", CtrStoreRefit)
	}

	// Ceiling: a cold build plus selection of the degraded grid from an
	// empty store — the same work the replan did, minus the store.
	coldTrace := obs.New()
	coldOpt := cheapOptions()
	coldOpt.Trace = coldTrace
	coldPl, err := NewPlanner(degraded, coldOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coldPl.SelectCoordinators(m); err != nil {
		t.Fatal(err)
	}
	coldProbes := counterValue(coldTrace, CtrProbes)
	if replanProbes >= coldProbes {
		t.Fatalf("warm replan probed %d times, cold build %d — nothing was reused",
			replanProbes, coldProbes)
	}
}

// TestServiceCacheThrashConcurrent is the eviction/epoch edge test:
// CacheCap 1, concurrent predictions over two topologies thrashing the
// single slot while Invalidate and ReportDelta race the builds. The
// service must stay consistent (run under -race), evictions must be
// counted, an invalidation landing mid-build must bar that build's
// write-back (store.stale_drop), and a topology untouched by the chaos
// must rebuild from the store without a single probe.
func TestServiceCacheThrashConcurrent(t *testing.T) {
	c := obs.New()
	opt := cheapOptions()
	opt.CacheCap = 1
	opt.Trace = c
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	topoA := testTopo()
	topoB := invalidateTestTopo()
	aTier := TierKey(topoA.Children[0])
	bTier := TierKey(topoB.Children[0])

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 3; j++ {
				topo := topoA
				if (i+j)%2 == 0 {
					topo = topoB
				}
				if _, err := svc.Predict(topo, 32<<10); err != nil {
					t.Errorf("Predict: %v", err)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for j := 0; j < 5; j++ {
			svc.Invalidate(aTier)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		// Sub-threshold on B: must never invalidate B's curves.
		if rep, err := svc.ReportDelta(topoB, bTier, Delta{RateFactor: 1.02}); err != nil || !rep.Skipped {
			t.Errorf("ReportDelta(B): rep=%+v err=%v", rep, err)
		}
		if _, err := svc.ReportDelta(topoA, aTier, Delta{RateFactor: 0.5, Size: 32 << 10}); err != nil {
			t.Errorf("ReportDelta(A): %v", err)
		}
	}()
	close(start)
	wg.Wait()

	if got := counterValue(c, CtrServiceEvict); got == 0 {
		t.Fatalf("%s = 0 after thrashing a 1-slot cache", CtrServiceEvict)
	}
	if svc.Len() > 1 {
		t.Fatalf("cache holds %d entries past CacheCap 1", svc.Len())
	}

	// Force a stale drop deterministically if the race above never
	// produced one: invalidate A's tier while a build of A is in
	// flight; the build must complete but be barred from writing back.
	for try := 0; counterValue(c, CtrStoreStale) == 0 && try < 20; try++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := svc.Predict(topoA, 32<<10); err != nil {
				t.Errorf("Predict(A): %v", err)
			}
		}()
		time.Sleep(3 * time.Millisecond)
		svc.Invalidate(aTier)
		<-done
	}
	if got := counterValue(c, CtrStoreStale); got == 0 {
		t.Fatalf("%s = 0: no in-flight build was ever barred from writing back", CtrStoreStale)
	}

	// Settle B's records with no invalidation racing the build, then a
	// fresh service over the same store must answer for B with zero
	// probe simulations — the warm-rebuild contract.
	if _, err := svc.Predict(topoB, 32<<10); err != nil {
		t.Fatal(err)
	}
	warmTrace := obs.New()
	warmOpt := cheapOptions()
	warmOpt.Trace = warmTrace
	warm, err := NewServiceWithStore(warmOpt, svc.Store())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Predict(topoB, 32<<10); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(warmTrace, CtrProbes); got != 0 {
		t.Fatalf("warm rebuild of the untouched topology ran %d probes, want 0", got)
	}
}

// TestGoldenFailoverTraceOutline pins the span/event structure of the
// resilience pipeline — a replan-on-delta followed by a failover
// execution — the same way TestGoldenTraceOutline pins the planning
// pipeline. Refresh with `go test ./internal/grid -run GoldenFailover
// -update`.
func TestGoldenFailoverTraceOutline(t *testing.T) {
	c := obs.New()
	c.SetClock(func() int64 { return 0 })
	opt := cheapOptions()
	opt.Trace = c
	topo := testTopo()
	svc, err := NewServiceWithStore(opt, NewCurveStore())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SelectCoordinators(topo, 32<<10); err != nil {
		t.Fatal(err)
	}
	c.Reset() // keep the outline to the resilience spans only
	rep, err := svc.ReportDelta(topo, TierKey(topo.Children[0]),
		Delta{RateFactor: 0.5, Size: 32 << 10, Source: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cluster.BuildGridTree(topo, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	fs := netsim.FaultSchedule{Nodes: []netsim.NodeFault{
		{Host: g.Env.Hosts[0].Name(), At: 15 * sim.Millisecond},
	}}
	if _, _, err := runFaulted(c, SimConfig{}, topo, rep.Spec, coll.KindAlltoall,
		32<<10, opt.Seed, fs, 250*sim.Millisecond); err != nil {
		t.Fatal(err)
	}

	got := strings.Join(c.Outline(), "\n") + "\n"
	golden := filepath.Join("testdata", "failover_outline.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("failover outline drifted from %s (run with -update if intended)\ngot %d lines, want %d\n%s",
			golden, strings.Count(got, "\n"), strings.Count(string(want), "\n"), firstDiff(got, string(want)))
	}
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateNDJSON(&buf); err != nil || n == 0 {
		t.Fatalf("resilience trace failed schema validation: n=%d err=%v", n, err)
	}
}
