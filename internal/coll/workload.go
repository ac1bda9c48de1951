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

// RunKindFlat executes the flat (non-hierarchical) kernel of a
// workload: the baseline the planner prices as FlatDirect. Rooted kinds
// use rank 0, matching PlanKindTree; alg selects the All-to-All(v)
// exchange pattern and is ignored by the other kinds. The workload must
// have passed Validate for the world's rank count.
func RunKindFlat(r *mpi.Rank, w Workload, alg Algorithm) {
	switch w.Kind {
	case KindAlltoall:
		Alltoall(r, w.M, alg)
	case KindAlltoallv:
		AlltoallV(r, w.Sizes, alg)
	case KindAllgather:
		Allgather(r, w.M)
	case KindBroadcast:
		Bcast(r, 0, w.M)
	case KindReduce:
		Reduce(r, 0, w.M)
	case KindReduceScatter:
		ReduceScatter(r, w.M)
	case KindAllreduce:
		Allreduce(r, w.M)
	default:
		panic(fmt.Sprintf("coll: no flat kernel for kind %s", w.Kind))
	}
}
