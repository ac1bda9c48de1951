package model

import (
	"testing"

	"repro/internal/coll"
)

// TestKindPredictionsAlltoallDelegates: the suite's entry prices an
// All-to-All as exactly its decomposition summed in the strategy's
// pinned order with the strategy's own factor — no per-kind weight or
// reordering leaks into the original model.
func TestKindPredictionsAlltoallDelegates(t *testing.T) {
	for name, g := range map[string]GridModel{"2lvl": gridModelFixture(), "3lvl": threeLevelFixture()} {
		g.OverlapGamma, g.GatherGamma = ScalarFactor(2.5), ScalarFactor(1.5)
		for _, m := range []int{4 << 10, 64 << 10, 512 << 10} {
			w := coll.Uniform(coll.KindAlltoall, m)
			flat, hg, hd := g.Parts(w, FlatDirect), g.Parts(w, HierGather), g.Parts(w, HierDirect)
			for s, want := range map[Strategy]float64{
				FlatDirect: flat.A + flat.B + flat.Scaled*3, // testWan's root γ_wan
				HierGather: hg.A + hg.B + hg.Scaled*1.5,
				HierDirect: hd.A + hd.Scaled*2.5 + hd.B,
			} {
				if got := g.Predict(w, s, nil); got != want {
					t.Fatalf("%s m=%d %v: prediction %v != summed decomposition %v", name, m, s, got, want)
				}
			}
		}
	}
}

func TestKindPredictionsPositiveAndOrdered(t *testing.T) {
	kinds := []coll.Kind{
		coll.KindAllgather, coll.KindBroadcast, coll.KindReduce,
		coll.KindReduceScatter, coll.KindAllreduce,
	}
	for name, g := range map[string]GridModel{"2lvl": gridModelFixture(), "3lvl": threeLevelFixture()} {
		for _, m := range []int{4 << 10, 64 << 10} {
			ata := g.Predict(coll.Uniform(coll.KindAlltoall, m), HierGather, nil)
			for _, k := range kinds {
				flat, hier := g.Predict(coll.Uniform(k, m), FlatDirect, nil), g.Predict(coll.Uniform(k, m), HierGather, nil)
				if flat <= 0 || hier <= 0 {
					t.Fatalf("%s %v m=%d: nonpositive flat=%v hier=%v", name, k, m, flat, hier)
				}
				// Every deduplicating or single-sweep rooted kind moves
				// strictly less data than the full total exchange.
				// (Allreduce runs two relay sweeps; at latency-dominated
				// sizes those can legitimately cost more than one
				// exchange round, so it is checked via composition
				// below instead.)
				if k != coll.KindAllreduce && hier >= ata {
					t.Fatalf("%s %v m=%d: hier %v not below alltoall %v", name, k, m, hier, ata)
				}
			}
			// Broadcast relays one payload per hop — the cheapest kind.
			if b, ag := g.Predict(coll.Uniform(coll.KindBroadcast, m), HierGather, nil), g.Predict(coll.Uniform(coll.KindAllgather, m), HierGather, nil); b >= ag {
				t.Fatalf("%s m=%d: broadcast hier %v not below allgather hier %v", name, m, b, ag)
			}
			// Allreduce composes reduce and broadcast over the same tree.
			sum := g.Predict(coll.Uniform(coll.KindReduce, m), HierGather, nil) + g.Predict(coll.Uniform(coll.KindBroadcast, m), HierGather, nil)
			if ar := g.Predict(coll.Uniform(coll.KindAllreduce, m), HierGather, nil); ar != sum {
				t.Fatalf("%s m=%d: allreduce %v != reduce+broadcast %v", name, m, ar, sum)
			}
		}
	}
}

func TestKindHierBeatsFlatOnDeepGrid(t *testing.T) {
	// The whole point of the suite: on a grid with an expensive top
	// tier, topology-oblivious flat kernels pay a WAN-gated round per
	// step and lose to the hierarchy for every kind.
	g := threeLevelFixture()
	const m = 64 << 10
	for _, k := range []coll.Kind{
		coll.KindAllgather, coll.KindBroadcast, coll.KindReduce,
		coll.KindReduceScatter, coll.KindAllreduce,
	} {
		if flat, hier := g.Predict(coll.Uniform(k, m), FlatDirect, nil), g.Predict(coll.Uniform(k, m), HierGather, nil); hier >= flat {
			t.Fatalf("%v: hier %v not below flat %v", k, hier, flat)
		}
	}
}

// TestRootedRelayDeterministicOnDeepGrids pins the rooted relay's WAN
// sum to ascending tier height. Its per-height legs used to be summed
// in map iteration order, so with three or more tier heights a
// Broadcast prediction changed in its last bits from call to call. The
// chain below has single-hop tiers of 0.1, 0.2 and 0.3 s at heights 1–3
// and singleton leaves, so the prediction is exactly the WAN sum, and
// (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3) in float64.
func TestRootedRelayDeterministicOnDeepGrids(t *testing.T) {
	tier := func(sec float64) WANModel {
		return WANModel{Curve: []WANPoint{{Bytes: 1 << 20, T: sec}}, Gamma: ScalarFactor(1)}
	}
	leaf := func() *ModelNode { return LeafNode(1, testSig()) }
	g := GridModel{Root: groupNode(tier(0.3),
		groupNode(tier(0.2), groupNode(tier(0.1), leaf(), leaf()), leaf()), leaf())}
	w := coll.Uniform(coll.KindBroadcast, 4<<10)
	want := 0.0
	for _, leg := range []float64{0.1, 0.2, 0.3} { // float64, not constant folding
		want += leg
	}
	for i := 0; i < 64; i++ {
		if got := g.Predict(w, HierGather, nil); got != want {
			t.Fatalf("call %d: broadcast = %v, want the ascending-height sum %v", i, got, want)
		}
	}
}
