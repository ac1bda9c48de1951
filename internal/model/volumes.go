package model

import (
	"repro/internal/coll"
)

// Volume sources. The grid model's legs (grid.go) are priced once; what
// a workload changes is only how many bytes each leg carries. A volume
// source answers those byte questions, and there are two:
//
//   - counts prices a regular collective from subtree sizes times a
//     per-kind weight, O(1) per cut: the uniform All-to-All moves m per
//     ordered rank pair, Allgather deduplicates to one copy per source,
//     Reduce-scatter to one partial per destination;
//   - matrix prices an irregular All-to-Allv by the *actual* bytes of
//     its size matrix restricted to each cut: topology subtrees own
//     contiguous rank blocks (BuildGridTree assigns ranks leaf by leaf
//     in tree order), so every cut is a rectangle sum over the matrix
//     (coll.SizeMatrix.SumRect and friends).
//
// Per leg, with s the leaf size, n the grid size, |x| a subtree's rank
// count and out(v) = n − |v|:
//
//	leg                      All-to-All       Allgather   Reduce-scatter  All-to-Allv
//	pair(c→d) exchange       |c|·|d|·m        |c|·m       |d|·m           Σ sz[c×d]
//	relayed up   (c under v) |c|·out(v)·m     |c|·m       out(v)·m        Σ sz[c×outside v]
//	relayed down (c under v) |c|·out(v)·m     (n−|c|)·m   |c|·m           Σ sz[outside v×c]
//	leaf gather, per member  (n−s)·m          m           (n−s)·m         row sums, remote
//	leaf scatter, per member (n−s)·m          (n−s)·m     m               column sums, remote
//
// The fitted contention factors (γ_wan per tier, ω, κ) multiply the
// same legs under either source — they summarize loss-recovery inflation
// of the *pattern* (flat chaos, overlapped relay, synchronized incast),
// which skew shifts in volume but not in kind — but each is a
// size-indexed FactorCurve, and the matrix source reports every leg's
// *effective per-flow size* (cut bytes over nonzero cut pairs) for the
// lookup: a skewed matrix whose fat rows push a tier's flows into a
// different contention regime is priced with the factor fitted nearest
// that regime. A uniform matrix is detected once per call and takes the
// counts source (volumesOf), so uniform ≡ irregular-with-a-uniform-matrix
// holds bit for bit; the two sources also agree bit for bit on every
// tier leg and flat term of a uniform exchange, and to rounding on the
// leaf relay leg (see leafRelay).
type volumes interface {
	// local returns leaf lf's effective per-pair local message size — the
	// size its contention signature prices the intra-leaf exchange at;
	// ok is false when the leaf exchanges no local bytes at all.
	local(lf *ModelNode) (eff int, ok bool)
	// outbound returns the full outbound volume of leaf lf's worst rank.
	outbound(lf *ModelNode) int
	// cut describes the flat exchange's crossing of tier a from its
	// child c: the bytes c sends a's other children, the largest single
	// pair entry (the per-flow curve limit) and the number of nonzero
	// pairs (the flow count an effective size divides the cut by).
	cut(a, c *ModelNode) (bytes, maxPair, flows int)
	// rounds returns the start-ups leaf lf's worst rank pays at tier a:
	// its peers under a but outside child c that owe bytes in either
	// direction.
	rounds(lf, a, c *ModelNode) int
	// pair returns the bytes of the aggregated coordinator message from
	// subtree c to its sibling d.
	pair(c, d *ModelNode) int
	// relayed returns the bytes child c of tier v forwards up to v's
	// coordinator bound outside v (up), or receives back down from it.
	relayed(v, c *ModelNode, up bool) int
	// leafRelay prices leaf lf's local gather (or scatter) leg through
	// its coordinator ports, given the start-up alpha, per-byte gap beta
	// and coordinator count c, and reports the bytes and nonzero remote
	// pairs behind it for the κ lookup size.
	leafRelay(lf *ModelNode, gather bool, alpha, beta, c float64) (t float64, bytes, pairs int)
}

// volumesOf resolves a workload to its volume source and, for a regular
// collective or a uniform matrix, its per-rank size m — the size every
// factor curve is then read at; a genuinely irregular matrix reports
// m = 0 and derives lookup sizes per leg. A workload that moves no bytes
// resolves to (nil, 0). The rooted kinds relay one payload per hop
// (kinds.go) and read no volume source: theirs is nil with m > 0. A
// workload malformed for the grid's rank count is a programming error:
// it panics with coll.Workload.Validate's message.
func (g GridModel) volumesOf(w coll.Workload) (src volumes, m int) {
	n := g.TotalNodes()
	if err := w.Validate(n); err != nil {
		panic(err.Error())
	}
	kind, m := w.Kind, w.M
	if kind == coll.KindAlltoallv {
		var uniform bool
		if m, uniform = w.Sizes.Uniform(); !uniform {
			return matrix{sz: w.Sizes, span: g.rankRanges()}, 0
		}
		kind = coll.KindAlltoall
	}
	switch kind {
	case coll.KindAlltoall, coll.KindAllgather, coll.KindReduceScatter:
		if m > 0 {
			src = counts{kind: kind, m: m, n: n}
		}
	}
	return src, m
}

// effSize returns the effective per-flow size of a cut: its byte sum
// spread over its nonzero pairs. A uniform exchange reduces it to m
// exactly; an empty cut is size 0.
func effSize(cut, flows int) int {
	if flows <= 0 {
		return 0
	}
	return cut / flows
}

// counts is the volume source of a regular collective of n ranks at
// per-rank contribution m > 0.
type counts struct {
	kind coll.Kind
	m, n int
}

func (k counts) local(*ModelNode) (int, bool) { return k.m, true }

func (k counts) outbound(*ModelNode) int { return (k.n - 1) * k.m }

func (k counts) cut(a, c *ModelNode) (bytes, maxPair, flows int) {
	flows = c.TotalNodes() * k.rounds(nil, a, c)
	return flows * k.m, k.m, flows
}

func (k counts) rounds(_, a, c *ModelNode) int { return a.TotalNodes() - c.TotalNodes() }

func (k counts) pair(c, d *ModelNode) int {
	switch k.kind {
	case coll.KindAllgather:
		return c.TotalNodes() * k.m
	case coll.KindReduceScatter:
		return d.TotalNodes() * k.m
	}
	return c.TotalNodes() * d.TotalNodes() * k.m
}

func (k counts) relayed(v, c *ModelNode, up bool) int {
	out := k.n - v.TotalNodes()
	switch {
	case k.kind == coll.KindAllgather && up, k.kind == coll.KindReduceScatter && !up:
		return c.TotalNodes() * k.m
	case k.kind == coll.KindAllgather:
		return (k.n - c.TotalNodes()) * k.m
	case k.kind == coll.KindReduceScatter:
		return out * k.m
	}
	return c.TotalNodes() * out * k.m
}

// leafRelay prices s−1 members each moving one per-member volume. The
// start-up and the bytes are summed per member and then scaled — one of
// the leg's two float associations; the matrix source sums the bytes
// first. Each is the only one that runs on its input, so neither moves.
func (k counts) leafRelay(lf *ModelNode, gather bool, alpha, beta, c float64) (float64, int, int) {
	vol := (k.n - lf.Size) * k.m
	if k.kind == coll.KindAllgather && gather || k.kind == coll.KindReduceScatter && !gather {
		vol = k.m
	}
	return float64(lf.Size-1) * (alpha + float64(vol)*beta/c), k.m, 1
}

// matrix is the volume source of an irregular exchange: sz restricted
// to the rank interval span assigns every model node.
type matrix struct {
	sz   coll.SizeMatrix
	span map[*ModelNode][2]int
}

// rankRanges assigns every node of the model tree its contiguous rank
// interval [lo, hi), leaf sizes accumulated in tree order — the rank
// assignment of a grid built from the mirrored topology.
func (g GridModel) rankRanges() map[*ModelNode][2]int {
	out := map[*ModelNode][2]int{}
	lo := 0
	var walk func(v *ModelNode)
	walk = func(v *ModelNode) {
		start := lo
		if v.IsLeaf() {
			lo += v.Size
		} else {
			for _, c := range v.Children {
				walk(c)
			}
		}
		out[v] = [2]int{start, lo}
	}
	walk(g.Root)
	return out
}

// local spreads the worst member's intra-leaf volume (outbound or
// inbound, whichever is larger) over its s−1 local partners.
func (x matrix) local(lf *ModelNode) (int, bool) {
	r := x.span[lf]
	if r[1]-r[0] <= 1 {
		return 0, false
	}
	worst := 0
	for i := r[0]; i < r[1]; i++ {
		v := x.sz.RowSum(i, r[0], r[1])
		if in := x.sz.ColSum(i, r[0], r[1]); in > v {
			v = in
		}
		if v > worst {
			worst = v
		}
	}
	return worst / (r[1] - r[0] - 1), worst > 0
}

func (x matrix) outbound(lf *ModelNode) int {
	r := x.span[lf]
	worst := 0
	for i := r[0]; i < r[1]; i++ {
		if v := x.sz.RowSum(i, 0, x.sz.NumRanks()); v > worst {
			worst = v
		}
	}
	return worst
}

// cut sums the rectangles on both flanks of c inside a.
func (x matrix) cut(a, c *ModelNode) (bytes, maxPair, flows int) {
	ar, cr := x.span[a], x.span[c]
	bytes = x.sz.SumRect(cr[0], cr[1], ar[0], cr[0]) + x.sz.SumRect(cr[0], cr[1], cr[1], ar[1])
	maxPair = x.sz.MaxRect(cr[0], cr[1], ar[0], cr[0])
	if m := x.sz.MaxRect(cr[0], cr[1], cr[1], ar[1]); m > maxPair {
		maxPair = m
	}
	flows = x.sz.CountRect(cr[0], cr[1], ar[0], cr[0]) + x.sz.CountRect(cr[0], cr[1], cr[1], ar[1])
	return bytes, maxPair, flows
}

func (x matrix) rounds(lf, a, c *ModelNode) int {
	lr, ar, cr := x.span[lf], x.span[a], x.span[c]
	worst := 0
	for r := lr[0]; r < lr[1]; r++ {
		if k := x.sz.NonzeroPairs(r, ar[0], cr[0]) + x.sz.NonzeroPairs(r, cr[1], ar[1]); k > worst {
			worst = k
		}
	}
	return worst
}

func (x matrix) pair(c, d *ModelNode) int {
	cr, dr := x.span[c], x.span[d]
	return x.sz.SumRect(cr[0], cr[1], dr[0], dr[1])
}

func (x matrix) relayed(v, c *ModelNode, up bool) int {
	vr, cr, n := x.span[v], x.span[c], x.sz.NumRanks()
	if up {
		return x.sz.SumRect(cr[0], cr[1], 0, vr[0]) + x.sz.SumRect(cr[0], cr[1], vr[1], n)
	}
	return x.sz.SumRect(0, vr[0], cr[0], cr[1]) + x.sz.SumRect(vr[1], n, cr[0], cr[1])
}

// leafRelay serializes the members' actual remote-bound (remote-origin)
// volume. The coordinator's own share never crosses the leaf's local
// links, so one member is excluded — the model only receives
// NumCoords/CoordBeta, never which rank a selection chose, so it
// excludes the member with the smallest remote volume: the worst case
// over possible coordinator choices (a hotspot member's fat rows are
// never priced away), reducing to the uniform (s−1)-member form. The
// s−1 start-ups and the summed bytes are priced separately (the leg's
// other float association, see counts.leafRelay).
func (x matrix) leafRelay(lf *ModelNode, gather bool, alpha, beta, c float64) (float64, int, int) {
	r, n := x.span[lf], x.sz.NumRanks()
	total, pairs, minB, minP := 0, 0, -1, 0
	for i := r[0]; i < r[1]; i++ {
		var b, p int
		if gather {
			b = x.sz.RowSum(i, 0, r[0]) + x.sz.RowSum(i, r[1], n)
			p = x.sz.CountRect(i, i+1, 0, r[0]) + x.sz.CountRect(i, i+1, r[1], n)
		} else {
			b = x.sz.ColSum(i, 0, r[0]) + x.sz.ColSum(i, r[1], n)
			p = x.sz.CountRect(0, r[0], i, i+1) + x.sz.CountRect(r[1], n, i, i+1)
		}
		total, pairs = total+b, pairs+p
		if minB < 0 || b < minB {
			minB, minP = b, p
		}
	}
	total, pairs = total-minB, pairs-minP
	if total == 0 {
		return 0, 0, 0
	}
	return float64(lf.Size-1)*alpha + float64(total)*beta/c, total, pairs
}
