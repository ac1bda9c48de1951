package coll

import "repro/internal/mpi"

// Reduction collectives. The paper's future work proposes extending the
// contention-signature methodology to other collectives; these provide
// the workloads for that extension (experiment EX2). Only data movement
// is simulated — reduction arithmetic is free in this model, as the
// paper's models also assume.

const (
	tagReduce        int32 = 6000
	tagAllreduce     int32 = 6200
	tagReduceScatter int32 = 6400
)

// reduce combines m-byte contributions from all ranks at root using a
// binomial tree: ceil(log2 n) communication steps, each moving m bytes.
func reduce(r *mpi.Rank, root, m int) {
	n := r.Size()
	if n == 1 {
		return
	}
	vrank := (r.ID() - root + n) % n
	// Reverse binomial: leaves send first, internal nodes combine.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := ((vrank &^ mask) + root) % n
			r.Send(parent, tagReduce, m)
			return
		}
		if vrank|mask < n {
			child := ((vrank | mask) + root) % n
			r.Recv(child, tagReduce)
		}
		mask <<= 1
	}
}

// Allreduce uses recursive doubling for power-of-two rank counts and
// reduce+broadcast otherwise.
func Allreduce(r *mpi.Rank, m int) {
	n := r.Size()
	if n == 1 {
		return
	}
	if n&(n-1) == 0 {
		// Recursive doubling: log2(n) pairwise exchanges of m bytes.
		for step, mask := 0, 1; mask < n; step, mask = step+1, mask<<1 {
			partner := r.ID() ^ mask
			r.Sendrecv(partner, tagAllreduce+int32(step), m, partner, tagAllreduce+int32(step))
		}
		return
	}
	reduce(r, 0, m)
	bcast(r, 0, m)
}

// reduceScatter distributes reduced m-byte blocks (one per rank) via the
// pairwise-halving pattern for power-of-two n, ring otherwise. Each step
// of the halving exchange moves half the remaining data.
func reduceScatter(r *mpi.Rank, m int) {
	n := r.Size()
	if n == 1 {
		return
	}
	if n&(n-1) == 0 {
		size := m * n / 2
		for step, mask := 0, 1; mask < n; step, mask = step+1, mask<<1 {
			partner := r.ID() ^ mask
			if size < 1 {
				size = 1
			}
			r.Sendrecv(partner, tagReduceScatter+int32(step), size, partner, tagReduceScatter+int32(step))
			size /= 2
		}
		return
	}
	// Ring fallback: n-1 steps, each passing m bytes to the successor.
	dst := (r.ID() + 1) % n
	src := (r.ID() - 1 + n) % n
	for t := 0; t < n-1; t++ {
		r.Sendrecv(dst, tagReduceScatter+int32(t), m, src, tagReduceScatter+int32(t))
	}
}
