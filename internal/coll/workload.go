package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Workload names one collective to run: its kind plus either the
// uniform per-rank contribution M or, for KindAlltoallv, the per-pair
// size matrix. It is the one description every runner takes, so
// "uniform vs irregular vs another kind" is a field value, not a
// function-name suffix.
type Workload struct {
	// Kind is the collective.
	Kind Kind
	// M is the per-rank (per-pair, for All-to-All) contribution in bytes
	// of a uniform kind; unused by KindAlltoallv.
	M int
	// Sizes is KindAlltoallv's per-pair byte matrix; every other kind
	// leaves it at the zero value (no n² matrix is built for them).
	Sizes SizeMatrix
}

// Uniform returns the workload of a uniform kind at per-rank
// contribution m.
func Uniform(kind Kind, m int) Workload { return Workload{Kind: kind, M: m} }

// Irregular returns the All-to-Allv workload over the size matrix sz.
func Irregular(sz SizeMatrix) Workload { return Workload{Kind: KindAlltoallv, Sizes: sz} }

// Validate reports whether the workload is well formed for a world of
// nranks ranks, naming the offending field otherwise.
func (w Workload) Validate(nranks int) error {
	hasSizes := w.Sizes.NumRanks() > 0
	switch w.Kind {
	case KindAlltoallv:
		if !hasSizes {
			return fmt.Errorf("coll: %v workload has no Sizes matrix", w.Kind)
		}
		if w.Sizes.NumRanks() != nranks {
			return fmt.Errorf("coll: size matrix covers %d ranks, topology has %d",
				w.Sizes.NumRanks(), nranks)
		}
	case KindAlltoall, KindAllgather, KindBroadcast, KindReduce, KindReduceScatter, KindAllreduce:
		if hasSizes {
			return fmt.Errorf("coll: uniform %v workload carries a Sizes matrix", w.Kind)
		}
		if w.M < 0 {
			return fmt.Errorf("coll: %v workload has negative M %d", w.Kind, w.M)
		}
	default:
		return fmt.Errorf("coll: unknown collective kind %d", int(w.Kind))
	}
	return nil
}

// msgBytes is the package's one payload rule: a message carrying blocks
// is units × scale bytes, and a message of zero units does not exist —
// neither end posts it. Uniform kinds scale by M: All-to-All counts one
// unit per block, Allgather one per distinct source (each contribution
// is forwarded once, however many destinations it is bound for),
// Reduce-scatter one per distinct destination (same-destination
// partials combine before they travel), and a relayed kind's message
// is one unit whatever it covers. All-to-Allv's units are the bytes
// its blocks owe, at scale 1 — so a uniform M = 0 still sends empty
// messages and only a matrix's zeros prune. Plan compilation, failover
// recovery epochs (over their surviving blocks) and the flat kernels
// (a rank pair being the one-block message) all size through here.
func (w Workload) msgBytes(blocks ...Block) (bytes int, exists bool) {
	units, scale := len(blocks), w.M
	switch {
	case w.Kind == KindAlltoallv:
		units, scale = 0, 1
		for _, b := range blocks {
			units += w.Sizes.At(b.Src, b.Dst)
		}
	case w.Kind == KindAllgather:
		units = distinct(blocks, func(b Block) int { return b.Src })
	case w.Kind == KindReduceScatter:
		units = distinct(blocks, func(b Block) int { return b.Dst })
	case w.Kind.relayed():
		units = min(units, 1)
	}
	return units * scale, units > 0
}

// RunKindFlat executes the flat (non-hierarchical) kernel of a
// workload: the baseline the planner prices as FlatDirect. Rooted kinds
// use rank 0, matching Compile; alg selects the All-to-All(v) exchange
// pattern and is ignored by the other kinds. The workload must have
// passed Validate for the world's rank count.
func RunKindFlat(r *mpi.Rank, w Workload, alg Algorithm) {
	switch w.Kind {
	case KindAlltoall, KindAlltoallv:
		alltoall(r, w, alg)
	case KindAllgather:
		Allgather(r, w.M)
	case KindBroadcast:
		bcast(r, 0, w.M)
	case KindReduce:
		reduce(r, 0, w.M)
	case KindReduceScatter:
		reduceScatter(r, w.M)
	case KindAllreduce:
		Allreduce(r, w.M)
	default:
		panic(fmt.Sprintf("coll: no flat kernel for kind %s", w.Kind))
	}
}
