// Canonical irregular-exchange workloads on grid topologies. Real grid
// applications rarely exchange equal blocks with every peer: a master
// rank fans out bulk state (hotspot row), or a domain decomposition
// keeps most bytes inside a cluster and trades thin halos across the
// WAN (block diagonal). These fixtures generate such per-pair byte
// matrices for any topology tree, as plain [][]int rows (rows[src][dst]
// bytes) over the tree's contiguous leaf rank blocks — the layer above
// (coll.SizeMatrixFromRows) wraps them for planning and execution, and
// GR4 validates planner rankings on them.
package cluster

import "fmt"

// uniformBytes returns the regular All-to-All byte matrix of a
// topology: every ordered pair of distinct ranks exchanges base bytes.
func uniformBytes(t TopoNode, base int) [][]int {
	n := t.TotalNodes()
	rows := emptyRows(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				rows[i][j] = base
			}
		}
	}
	return rows
}

// HotspotRowBytes returns the hotspot-row workload: every pair
// exchanges base bytes, except that rank `hot` sends factor·base to
// every peer (a master fanning out bulk state). Its inbound sizes stay
// at base, so the skew is genuinely one-directional.
func HotspotRowBytes(t TopoNode, base, hot, factor int) [][]int {
	n := t.TotalNodes()
	if hot < 0 || hot >= n {
		panic(fmt.Sprintf("cluster: hotspot rank %d outside 0..%d", hot, n-1))
	}
	if factor < 1 {
		panic(fmt.Sprintf("cluster: hotspot factor %d < 1", factor))
	}
	rows := uniformBytes(t, base)
	for j := 0; j < n; j++ {
		if j != hot {
			rows[hot][j] = base * factor
		}
	}
	return rows
}

// BlockDiagonalBytes returns the block-diagonal workload: pairs inside
// one leaf cluster exchange `local` bytes, pairs in different leaves
// exchange `remote` bytes (a domain decomposition with heavy local
// coupling and thin WAN halos when remote ≪ local — or the inverse
// when remote ≫ local, which is what stresses the aggregation
// tradeoff).
func BlockDiagonalBytes(t TopoNode, local, remote int) [][]int {
	n := t.TotalNodes()
	rows := emptyRows(n)
	leafOf := leafOfRanks(t)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if leafOf[i] == leafOf[j] {
				rows[i][j] = local
			} else {
				rows[i][j] = remote
			}
		}
	}
	return rows
}

// SkewedWorkloads returns the canonical skewed fixtures for a
// topology, keyed by name — the GR4 validation workloads, sized to sit
// in the bracket the model claims (docs/MODEL.md §6):
//
//   - "hotspot-row": a 48 KiB uniform exchange with rank 0 sending
//     4× (192 KiB) to every peer — the master-fan-out shape;
//   - "block-diagonal": 16 KiB inside a leaf cluster, 64 KiB across —
//     the cross-heavy shape that stresses the aggregation tradeoff.
func SkewedWorkloads(t TopoNode) map[string][][]int {
	return map[string][][]int{
		"hotspot-row":    HotspotRowBytes(t, 48<<10, 0, 4),
		"block-diagonal": BlockDiagonalBytes(t, 16<<10, 64<<10),
	}
}

// emptyRows allocates an n×n zero byte matrix.
func emptyRows(n int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, n)
	}
	return rows
}

// leafOfRanks maps every rank of a topology to its leaf index, using
// the contiguous tree-order rank blocks BuildGridTree assigns.
func leafOfRanks(t TopoNode) []int {
	out := make([]int, 0, t.TotalNodes())
	for l, lf := range t.Leaves() {
		for i := 0; i < lf.Nodes; i++ {
			out = append(out, l)
		}
	}
	return out
}
