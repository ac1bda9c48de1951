package model

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/obs"
)

// Per-kind pieces of GridModel.Predict. The collective suite
// (internal/coll, Compile) reuses the hierarchical plan machinery
// across Allgather, Broadcast, Reduce, Reduce-scatter, and Allreduce,
// and the model prices each kind with the same fitted ingredients the
// All-to-All model uses — the per-tier transfer curves, the κ incast
// factor (GatherGamma), the coordinator-port headroom floors:
//
//   - Allgather and Reduce-scatter ride the All-to-All relay sweep
//     (grid.go) with only the per-leg byte weights changed to what the
//     compiled plans actually move (the counts source, volumes.go);
//   - Broadcast and Reduce relay one m-byte payload per hop of the
//     delegate tree (fan-out down, incast up) — structurally different,
//     priced by relayLegs below; Reduce's leaf incast is κ-charged like
//     the All-to-All gather incast. Combining arithmetic is free, as the
//     simulator (which charges none) and the paper's models assume;
//   - Allreduce is Reduce∘Broadcast over the same relay;
//   - every kind's flat (topology-oblivious) kernel is priced by
//     flatKernel.

// flatKernel prices the flat kernel of a kind other than All-to-All(v),
// as RunKindFlat executes it: ring allgather, binomial broadcast and
// reverse-binomial reduce, recursive doubling or reduce+broadcast
// allreduce, halving or ring reduce-scatter. Every flat round is gated
// by the grid's top tier in the worst case, which is what makes flat
// kernels lose to the hierarchy on deep grids.
func (g GridModel) flatKernel(kind coll.Kind, m int) float64 {
	n := g.TotalNodes()
	switch kind {
	case coll.KindAllgather:
		return float64(n-1) * g.hopTransfer(m)
	case coll.KindBroadcast, coll.KindReduce:
		return float64(ceilLog2(n)) * g.hopTransfer(m)
	case coll.KindAllreduce:
		if n&(n-1) == 0 {
			// Recursive doubling: log2(n) pairwise exchanges. The
			// rounds whose partner mask crosses a cluster boundary push
			// all n ranks' flows through a WAN tier at once — the same
			// burst-through-one-uplink pattern the fitted κ incast
			// factor measures — so those ceil(log2 #clusters) rounds
			// are priced as n/2 concurrent flows κ-inflated, and only
			// the remaining intra-cluster rounds as single hops.
			rounds := ceilLog2(n)
			wanRounds := ceilLog2(len(g.Leaves()))
			if wanRounds > rounds {
				wanRounds = rounds
			}
			t := 0.0
			if !g.Root.IsLeaf() && wanRounds > 0 {
				t = float64(wanRounds) * g.Root.Wan.TransferShared(n/2, m) * gammaAt(g.GatherGamma, m)
				rounds -= wanRounds
			}
			return t + float64(rounds)*g.hopTransfer(m)
		}
		return g.flatKernel(coll.KindReduce, m) + g.flatKernel(coll.KindBroadcast, m)
	case coll.KindReduceScatter:
		if n&(n-1) == 0 {
			// Pairwise halving: the exchanged volume halves each step.
			t, size := 0.0, m*n/2
			for mask := 1; mask < n; mask <<= 1 {
				if size < 1 {
					size = 1
				}
				t += g.hopTransfer(size)
				size /= 2
			}
			return t
		}
		return float64(n-1) * g.hopTransfer(m)
	}
	panic(fmt.Sprintf("model: no flat prediction for %v", kind))
}

// rootedHier prices the delegate relay coll.Compile builds for the
// rooted kinds.
func (g GridModel) rootedHier(kind coll.Kind, m int, tr *obs.Collector) float64 {
	switch kind {
	case coll.KindBroadcast:
		wan, local := g.relayLegs(m)
		return wan + local
	case coll.KindReduce:
		wan, local := g.relayLegs(m)
		if tr != nil {
			emitLookup(tr, "kappa", -1, g.GatherGamma, m)
		}
		return wan + local*gammaAt(g.GatherGamma, m)
	case coll.KindAllreduce:
		return g.rootedHier(coll.KindReduce, m, tr) + g.rootedHier(coll.KindBroadcast, m, tr)
	}
	panic(fmt.Sprintf("model: no hierarchical prediction for %v", kind))
}

// hopTransfer prices one worst-case hop of a flat kernel's round: the
// top tier's end-to-end curve (which subsumes the tiers it transits),
// or the LAN point-to-point time on a degenerate single-cluster grid.
func (g GridModel) hopTransfer(m int) float64 {
	if g.Root.IsLeaf() {
		h := g.Root.LAN.H
		return h.Alpha + float64(m)*h.Beta
	}
	return g.Root.Wan.Transfer(m)
}

// ceilLog2 returns ceil(log2 n) for n ≥ 1: the round count of the
// binomial-tree kernels.
func ceilLog2(n int) int {
	r := 0
	for p := 1; p < n; p <<= 1 {
		r++
	}
	return r
}

// relayLegs prices the rooted delegate relay (compileRooted): per group
// tier, one m-byte message per non-colocated child delegate through the
// tier's uplink (tiers at one height run concurrently, heights
// sequentially, summed in ascending height order so the float sum is
// reproducible on any depth); at the leaves, the worst (s−1)-member
// local leg through the coordinator port.
func (g GridModel) relayLegs(m int) (wan, local float64) {
	byHeight := make([]float64, g.Root.Height()+1)
	var walk func(v *ModelNode)
	walk = func(v *ModelNode) {
		if v.IsLeaf() {
			if s := v.Size; s > 1 {
				h := v.LAN.H
				beta := h.Beta
				if v.CoordBeta > 0 {
					beta = v.CoordBeta
				}
				if t := float64(s-1) * (h.Alpha + float64(m)*beta/float64(v.coordSplit())); t > local {
					local = t
				}
			}
			return
		}
		if k := len(v.Children) - 1; k > 0 {
			if t := v.Wan.TransferShared(k, m); t > byHeight[v.Height()] {
				byHeight[v.Height()] = t
			}
		}
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(g.Root)
	for _, t := range byHeight {
		wan += t
	}
	return wan, local
}
