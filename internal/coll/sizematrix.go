package coll

import "fmt"

// Irregular total exchange (All-to-Allv) support: instead of one
// per-pair message size m, a SizeMatrix names the exact byte count each
// ordered (src, dst) rank pair exchanges. The uniform All-to-All is the
// special case where every off-diagonal entry equals m — and every v
// code path (plan compilation, execution, prediction) is required to
// reduce to the uniform path exactly on such matrices, so the v-variant
// is a strict generalization, never a fork.

// SizeMatrix holds per-(src, dst) byte counts of one irregular total
// exchange over n ranks. The diagonal must stay zero (ranks do not send
// to themselves); all entries must be non-negative. The zero value is
// unusable — construct with NewSizeMatrix, UniformSizeMatrix or
// SizeMatrixFromRows.
type SizeMatrix struct {
	n     int
	bytes []int // row-major, bytes[src*n+dst]
}

// NewSizeMatrix returns an all-zero n×n size matrix.
func NewSizeMatrix(n int) SizeMatrix {
	if n < 1 {
		panic(fmt.Sprintf("coll: size matrix over %d ranks", n))
	}
	return SizeMatrix{n: n, bytes: make([]int, n*n)}
}

// UniformSizeMatrix returns the matrix of the regular All-to-All: every
// ordered pair of distinct ranks exchanges m bytes.
func UniformSizeMatrix(n, m int) SizeMatrix {
	if m < 0 {
		panic(fmt.Sprintf("coll: negative uniform size %d", m))
	}
	sz := NewSizeMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sz.bytes[i*n+j] = m
			}
		}
	}
	return sz
}

// SizeMatrixFromRows builds a size matrix from explicit rows
// (rows[src][dst] bytes), validating shape, non-negativity and a zero
// diagonal. Rows are copied; the caller's slice is not retained.
func SizeMatrixFromRows(rows [][]int) SizeMatrix {
	n := len(rows)
	sz := NewSizeMatrix(n)
	for i, row := range rows {
		if len(row) != n {
			panic(fmt.Sprintf("coll: size matrix row %d has %d entries, want %d", i, len(row), n))
		}
		for j, b := range row {
			if b < 0 {
				panic(fmt.Sprintf("coll: negative size %d at (%d,%d)", b, i, j))
			}
			if i == j && b != 0 {
				panic(fmt.Sprintf("coll: nonzero diagonal %d at rank %d", b, i))
			}
			sz.bytes[i*n+j] = b
		}
	}
	return sz
}

// NumRanks returns the rank count the matrix covers.
func (sz SizeMatrix) NumRanks() int { return sz.n }

// At returns the bytes rank src owes rank dst.
func (sz SizeMatrix) At(src, dst int) int { return sz.bytes[src*sz.n+dst] }

// Set assigns the bytes rank src owes rank dst. Diagonal entries must
// stay zero and sizes non-negative.
func (sz SizeMatrix) Set(src, dst, b int) {
	if b < 0 {
		panic(fmt.Sprintf("coll: negative size %d at (%d,%d)", b, src, dst))
	}
	if src == dst && b != 0 {
		panic(fmt.Sprintf("coll: nonzero diagonal at rank %d", src))
	}
	sz.bytes[src*sz.n+dst] = b
}

// Total sums every entry — the exchange's global byte volume.
func (sz SizeMatrix) Total() int {
	t := 0
	for _, b := range sz.bytes {
		t += b
	}
	return t
}

// RowSum returns rank src's total outbound bytes over dsts in [lo, hi).
func (sz SizeMatrix) RowSum(src, lo, hi int) int {
	t := 0
	for j := lo; j < hi; j++ {
		t += sz.bytes[src*sz.n+j]
	}
	return t
}

// ColSum returns rank dst's total inbound bytes over srcs in [lo, hi).
func (sz SizeMatrix) ColSum(dst, lo, hi int) int {
	t := 0
	for i := lo; i < hi; i++ {
		t += sz.bytes[i*sz.n+dst]
	}
	return t
}

// SumRect sums the bytes of the rectangle srcs [srcLo, srcHi) ×
// dsts [dstLo, dstHi) — the cross-subtree cut volumes the grid model
// prices, since topology subtrees own contiguous rank blocks.
func (sz SizeMatrix) SumRect(srcLo, srcHi, dstLo, dstHi int) int {
	t := 0
	for i := srcLo; i < srcHi; i++ {
		t += sz.RowSum(i, dstLo, dstHi)
	}
	return t
}

// MaxRect returns the largest single entry of the rectangle
// srcs [srcLo, srcHi) × dsts [dstLo, dstHi) — the per-flow curve limit
// of a shared WAN crossing.
func (sz SizeMatrix) MaxRect(srcLo, srcHi, dstLo, dstHi int) int {
	m := 0
	for i := srcLo; i < srcHi; i++ {
		for j := dstLo; j < dstHi; j++ {
			if b := sz.bytes[i*sz.n+j]; b > m {
				m = b
			}
		}
	}
	return m
}

// CountRect returns the number of nonzero entries of the rectangle
// srcs [srcLo, srcHi) × dsts [dstLo, dstHi) — the flow count a
// cross-subtree cut spreads its bytes over, which the grid model's
// factor-curve lookups divide the cut sum by for an effective per-flow
// size.
func (sz SizeMatrix) CountRect(srcLo, srcHi, dstLo, dstHi int) int {
	c := 0
	for i := srcLo; i < srcHi; i++ {
		for j := dstLo; j < dstHi; j++ {
			if sz.bytes[i*sz.n+j] > 0 {
				c++
			}
		}
	}
	return c
}

// NonzeroPairs reports how many (src, dst) pairs of the rectangle carry
// any bytes in either direction — the rounds a direct exchange actually
// pays start-ups for.
func (sz SizeMatrix) NonzeroPairs(src, dstLo, dstHi int) int {
	c := 0
	for j := dstLo; j < dstHi; j++ {
		if j == src {
			continue
		}
		if sz.bytes[src*sz.n+j] > 0 || sz.bytes[j*sz.n+src] > 0 {
			c++
		}
	}
	return c
}

// Uniform reports whether every off-diagonal entry equals one value m,
// returning it. Uniform matrices are the fast path: plans and
// predictions delegate to the regular All-to-All code, guaranteeing
// bit-identical results.
func (sz SizeMatrix) Uniform() (m int, ok bool) {
	if sz.n == 1 {
		return 0, true
	}
	m = sz.bytes[1] // (0,1): first off-diagonal entry
	for i := 0; i < sz.n; i++ {
		for j := 0; j < sz.n; j++ {
			if i == j {
				continue
			}
			if sz.bytes[i*sz.n+j] != m {
				return 0, false
			}
		}
	}
	return m, true
}
