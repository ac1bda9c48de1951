// Package coll implements collective communication operations on the mpi
// runtime. The central operation is the regular All-to-All (total
// exchange with equal message sizes), in the Direct Exchange form the
// paper models (Algorithm 1, the implementation used by LAM-MPI and
// MPICH at the time), plus alternative algorithms used as ablation
// baselines, the flat kernels of the other collectives (Allgather,
// Broadcast, Reduce, Reduce-scatter, Allreduce), and hierarchical plans
// of every kind over multi-level grid topologies (Compile, RunPlan,
// FailoverRun).
package coll

import (
	"fmt"

	"repro/internal/mpi"
)

// Reserved user-level tag bases, one per collective family.
const (
	tagAlltoall  int32 = 1000
	tagAllgather int32 = 4000
	tagBcast     int32 = 5000
)

// Algorithm selects an All-to-All implementation.
type Algorithm int

const (
	// Direct is the paper's Algorithm 1: n-1 rounds, in round t rank i
	// sends to (i+t) mod n while receiving from (i-t) mod n, waiting for
	// both before the next round. Destination rotation spreads load;
	// there is no global synchronization between rounds.
	Direct Algorithm = iota
	// PostAll posts every receive and every send at once and waits for
	// all of them: maximum injection pressure, no round structure.
	PostAll
	// Bruck is the log-round store-and-forward algorithm: ceil(log2 n)
	// rounds, each moving about half the blocks; total traffic grows by
	// a log factor but start-ups drop from n-1 to log2 n.
	Bruck
	// Pairwise is the XOR-pattern exchange: in round t, partners i and
	// i^t swap. Requires a power-of-two rank count; callers fall back to
	// Direct otherwise.
	Pairwise
)

// Algorithms lists all All-to-All variants.
var Algorithms = []Algorithm{Direct, PostAll, Bruck, Pairwise}

// String names the algorithm as used in experiment output.
func (a Algorithm) String() string {
	switch a {
	case Direct:
		return "direct"
	case PostAll:
		return "postall"
	case Bruck:
		return "bruck"
	case Pairwise:
		return "pairwise"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Effective resolves the algorithm that actually runs for n ranks:
// Pairwise requires a power-of-two rank count and otherwise falls back
// to Direct. Experiments must label results with the effective
// algorithm, not the requested one.
func (a Algorithm) Effective(n int) Algorithm {
	if a == Pairwise && n&(n-1) != 0 {
		return Direct
	}
	return a
}

// Alltoall runs one total exchange with per-pair message size m using the
// chosen algorithm. Every rank must call it. It returns the algorithm
// actually executed, which differs from alg only for Pairwise on
// non-power-of-two rank counts (Direct fallback).
func Alltoall(r *mpi.Rank, m int, alg Algorithm) Algorithm {
	return alltoall(r, Uniform(KindAlltoall, m), alg)
}

// alltoall runs one total exchange of an All-to-All(v) workload and
// returns the algorithm actually executed. Direct and PostAll take
// per-pair sizes naturally (a pair that owes no bytes exchanges no
// message and pays no start-up); Bruck's store-and-forward rounds and
// Pairwise's XOR pattern assume uniform blocks, so an irregular
// exchange asking for them runs Direct.
func alltoall(r *mpi.Rank, w Workload, alg Algorithm) Algorithm {
	eff := alg.Effective(r.Size())
	if w.Kind == KindAlltoallv && eff != PostAll {
		eff = Direct
	}
	switch eff {
	case Direct:
		alltoallDirect(r, w)
	case PostAll:
		alltoallPostAll(r, w)
	case Bruck:
		alltoallBruck(r, w.M)
	case Pairwise:
		alltoallPairwise(r, w.M)
	default:
		panic("coll: unknown algorithm")
	}
	return eff
}

// alltoallDirect is Algorithm 1 of the paper: n−1 rotation rounds, each
// waiting for its own receive and send. Both sides size a pair through
// the same rule, so a skipped direction is skipped on both ends.
func alltoallDirect(r *mpi.Rank, w Workload) {
	n, me := r.Size(), r.ID()
	for t := 1; t < n; t++ {
		dst, src := (me+t)%n, (me-t+n)%n
		tag := tagAlltoall + int32(t)
		var qs [2]*mpi.Request
		k := 0
		if _, ok := w.msgBytes(Block{Src: src, Dst: me}); ok {
			qs[k], k = r.Irecv(src, tag), k+1
		}
		if b, ok := w.msgBytes(Block{Src: me, Dst: dst}); ok {
			qs[k], k = r.Isend(dst, tag, b), k+1
		}
		r.WaitAll(qs[:k]...)
	}
}

// alltoallPostAll posts every receive and send at once and waits for
// all of them.
func alltoallPostAll(r *mpi.Rank, w Workload) {
	n, me := r.Size(), r.ID()
	qs := make([]*mpi.Request, 0, 2*(n-1))
	for t := 1; t < n; t++ {
		src := (me - t + n) % n
		if _, ok := w.msgBytes(Block{Src: src, Dst: me}); ok {
			qs = append(qs, r.Irecv(src, tagAlltoall+int32(t)))
		}
	}
	for t := 1; t < n; t++ {
		dst := (me + t) % n
		if b, ok := w.msgBytes(Block{Src: me, Dst: dst}); ok {
			qs = append(qs, r.Isend(dst, tagAlltoall+int32(t), b))
		}
	}
	r.WaitAll(qs...)
}

// alltoallBruck runs the Bruck algorithm, tracking only data volumes: in
// the round with distance k, every block whose index has a nonzero k-bit
// is forwarded, so the transfer size is m times the number of such
// blocks.
func alltoallBruck(r *mpi.Rank, m int) {
	n := r.Size()
	round := 0
	for k := 1; k < n; k <<= 1 {
		blocks := 0
		for j := 1; j < n; j++ {
			if j&k != 0 {
				blocks++
			}
		}
		dst := (r.ID() + k) % n
		src := (r.ID() - k + n) % n
		size := blocks * m
		if size == 0 {
			size = 1
		}
		r.Sendrecv(dst, tagAlltoall+int32(round), size, src, tagAlltoall+int32(round))
		round++
	}
}

// alltoallPairwise is the XOR exchange (power-of-two n only).
func alltoallPairwise(r *mpi.Rank, m int) {
	n := r.Size()
	for t := 1; t < n; t++ {
		partner := r.ID() ^ t
		r.Sendrecv(partner, tagAlltoall+int32(t), m, partner, tagAlltoall+int32(t))
	}
}

// Allgather runs the ring algorithm: n-1 steps, each passing an m-byte
// block to the successor.
func Allgather(r *mpi.Rank, m int) {
	n := r.Size()
	if n == 1 {
		return
	}
	dst := (r.ID() + 1) % n
	src := (r.ID() - 1 + n) % n
	for t := 0; t < n-1; t++ {
		r.Sendrecv(dst, tagAllgather+int32(t), m, src, tagAllgather+int32(t))
	}
}

// bcast broadcasts an m-byte message from root using a binomial tree.
func bcast(r *mpi.Rank, root, m int) {
	n := r.Size()
	vrank := (r.ID() - root + n) % n
	// Receive from parent (if not root).
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % n
			r.Recv(parent, tagBcast)
			break
		}
		mask <<= 1
	}
	// Forward to children.
	mask >>= 1
	for ; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			r.Send(child, tagBcast, m)
		}
	}
}
