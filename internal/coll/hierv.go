package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Irregular (All-to-Allv) execution paths. The plan *structure* of a
// hierarchical exchange — which blocks travel in which message, through
// which coordinators, in which phase — depends only on the topology,
// never on sizes; what a SizeMatrix changes is how many bytes each
// message carries, and whether it needs to exist at all. PlanHierTreeV
// therefore compiles the exact same plan as PlanHierTree and then binds
// the matrix: each message's payload is the sum of its blocks' (src,
// dst) entries, and messages whose payload is zero are skipped by both
// endpoints at execution (the plan is shared, so the skip is
// symmetric). On a uniform matrix every message carries blocks·m bytes
// — byte-identical to the uniform plan, pinned by tests.

// PlanHierTreeV compiles the hierarchical All-to-Allv plan for an
// arbitrary topology tree: the PlanHierTree plan of the same spec with
// each message's payload bound to the matrix's per-block byte counts.
// It panics when the matrix does not cover exactly the spec's ranks (a
// programming error, like a malformed spec); BindSizes is the
// error-returning form for callers validating external input.
func PlanHierTreeV(spec TreeSpec, alg HierAlgorithm, sz SizeMatrix) *HierPlan {
	plan := PlanHierTree(spec, alg)
	if err := plan.BindSizes(sz); err != nil {
		panic(err.Error())
	}
	return plan
}

// BindSizes binds a size matrix to a compiled plan in place: each
// message's payload becomes the sum of its blocks' (src, dst) entries,
// and RunPlan then ignores its m argument. It errors when the matrix's
// rank count does not match the plan's.
func (p *HierPlan) BindSizes(sz SizeMatrix) error {
	if sz.NumRanks() != p.Place.NumRanks() {
		return fmt.Errorf("coll: size matrix covers %d ranks, topology has %d",
			sz.NumRanks(), p.Place.NumRanks())
	}
	vb := make([]int, len(p.msgs))
	for i, m := range p.msgs {
		t := 0
		for _, blk := range m.blocks {
			t += sz.At(blk.Src, blk.Dst)
		}
		vb[i] = t
	}
	p.vbytes = vb
	p.Kind = KindAlltoallv
	return nil
}

// MessageBytes returns the plan's total payload volume: per-block bytes
// summed over every message (so a relayed byte counts once per hop).
// For uniform plans the per-pair size m prices every block.
func (p *HierPlan) MessageBytes(m int) int {
	if p.vbytes != nil {
		t := 0
		for _, b := range p.vbytes {
			t += b
		}
		return t
	}
	t := 0
	for _, msg := range p.msgs {
		t += len(msg.blocks) * m
	}
	return t
}

// EffectiveV resolves the algorithm that actually runs an irregular
// exchange: Direct and PostAll generalize to per-pair sizes naturally,
// while Bruck's store-and-forward rounds and Pairwise's XOR pattern
// assume uniform blocks and fall back to Direct.
func (a Algorithm) EffectiveV() Algorithm {
	if a == PostAll {
		return PostAll
	}
	return Direct
}

// AlltoallV runs one irregular total exchange with per-pair byte counts
// sz using the chosen algorithm. Pairs owing zero bytes exchange no
// message (and pay no start-up). Every rank must call it with the same
// matrix; the algorithm actually executed is returned (see EffectiveV).
func AlltoallV(r *mpi.Rank, sz SizeMatrix, alg Algorithm) Algorithm {
	if sz.NumRanks() != r.Size() {
		panic(fmt.Sprintf("coll: size matrix covers %d ranks, world has %d",
			sz.NumRanks(), r.Size()))
	}
	eff := alg.EffectiveV()
	switch eff {
	case Direct:
		alltoallDirectV(r, sz)
	case PostAll:
		alltoallPostAllV(r, sz)
	default:
		panic("coll: unknown algorithm")
	}
	return eff
}

// alltoallDirectV is Algorithm 1 with per-pair sizes: the same n−1
// rotation rounds, each waiting for its own send and receive, with
// zero-byte directions skipped (both sides read the same matrix, so
// skips always match).
func alltoallDirectV(r *mpi.Rank, sz SizeMatrix) {
	n := r.Size()
	for t := 1; t < n; t++ {
		dst := (r.ID() + t) % n
		src := (r.ID() - t + n) % n
		qs := make([]*mpi.Request, 0, 2)
		if sz.At(src, r.ID()) > 0 {
			qs = append(qs, r.Irecv(src, tagAlltoall+int32(t)))
		}
		if b := sz.At(r.ID(), dst); b > 0 {
			qs = append(qs, r.Isend(dst, tagAlltoall+int32(t), b))
		}
		r.WaitAll(qs...)
	}
}

// alltoallPostAllV posts every nonzero receive and send at once and
// waits for all of them.
func alltoallPostAllV(r *mpi.Rank, sz SizeMatrix) {
	n := r.Size()
	qs := make([]*mpi.Request, 0, 2*(n-1))
	for t := 1; t < n; t++ {
		src := (r.ID() - t + n) % n
		if sz.At(src, r.ID()) > 0 {
			qs = append(qs, r.Irecv(src, tagAlltoall+int32(t)))
		}
	}
	for t := 1; t < n; t++ {
		dst := (r.ID() + t) % n
		if b := sz.At(r.ID(), dst); b > 0 {
			qs = append(qs, r.Isend(dst, tagAlltoall+int32(t), b))
		}
	}
	r.WaitAll(qs...)
}
