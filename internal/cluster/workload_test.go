package cluster

import (
	"testing"

	"repro/internal/sim"
)

func workloadTestTree() TopoNode {
	ge := WANTuned(GigabitEthernet())
	return Group("wl", DefaultWAN(10*sim.Millisecond),
		Leaf(ge, 3),
		Group("wl-inner", DefaultWAN(5*sim.Millisecond), Leaf(ge, 2), Leaf(ge, 2)),
	)
}

func TestUniformBytes(t *testing.T) {
	rows := uniformBytes(workloadTestTree(), 100)
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	for i, row := range rows {
		for j, b := range row {
			want := 100
			if i == j {
				want = 0
			}
			if b != want {
				t.Fatalf("rows[%d][%d] = %d, want %d", i, j, b, want)
			}
		}
	}
}

func TestHotspotRowBytes(t *testing.T) {
	rows := HotspotRowBytes(workloadTestTree(), 100, 2, 8)
	for j := range rows {
		if j != 2 && rows[2][j] != 800 {
			t.Fatalf("hotspot row[2][%d] = %d, want 800", j, rows[2][j])
		}
		if j != 2 && rows[j][2] != 100 {
			t.Fatalf("hotspot inbound [%d][2] = %d, want base 100", j, rows[j][2])
		}
	}
	if rows[2][2] != 0 {
		t.Fatal("hotspot diagonal must stay zero")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("hot rank out of range", func() { HotspotRowBytes(workloadTestTree(), 100, 9, 8) })
	mustPanic("factor below 1", func() { HotspotRowBytes(workloadTestTree(), 100, 0, 0) })
}

func TestBlockDiagonalBytes(t *testing.T) {
	// Leaf rank blocks in tree order: {0,1,2}, {3,4}, {5,6}.
	rows := BlockDiagonalBytes(workloadTestTree(), 800, 100)
	leafOf := []int{0, 0, 0, 1, 1, 2, 2}
	for i, row := range rows {
		for j, b := range row {
			want := 100
			switch {
			case i == j:
				want = 0
			case leafOf[i] == leafOf[j]:
				want = 800
			}
			if b != want {
				t.Fatalf("rows[%d][%d] = %d, want %d", i, j, b, want)
			}
		}
	}
}

func TestSkewedWorkloads(t *testing.T) {
	ws := SkewedWorkloads(workloadTestTree())
	for _, name := range []string{"hotspot-row", "block-diagonal"} {
		rows, ok := ws[name]
		if !ok {
			t.Fatalf("missing canonical workload %q", name)
		}
		if len(rows) != 7 {
			t.Fatalf("%s: %d rows, want 7", name, len(rows))
		}
	}
	if got := ws["hotspot-row"][0][1]; got != 4*48<<10 {
		t.Fatalf("hotspot-row[0][1] = %d, want 4×48 KiB", got)
	}
	if got := ws["hotspot-row"][1][0]; got != 48<<10 {
		t.Fatalf("hotspot-row[1][0] = %d, want base 48 KiB", got)
	}
	// Ranks 0 and 1 share leaf 0; rank 6 sits in leaf 2.
	if ws["block-diagonal"][0][1] != 16<<10 || ws["block-diagonal"][0][6] != 64<<10 {
		t.Fatal("block-diagonal local/cross entries wrong")
	}
}
