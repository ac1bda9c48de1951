package coll

import "testing"

func TestSizeMatrixBasics(t *testing.T) {
	sz := NewSizeMatrix(3)
	if sz.NumRanks() != 3 || sz.Total() != 0 {
		t.Fatalf("fresh matrix: ranks=%d total=%d", sz.NumRanks(), sz.Total())
	}
	sz.Set(0, 1, 100)
	sz.Set(1, 0, 7)
	sz.Set(2, 1, 50)
	if sz.At(0, 1) != 100 || sz.At(1, 0) != 7 || sz.At(0, 2) != 0 {
		t.Fatal("At/Set mismatch")
	}
	if got := sz.Total(); got != 157 {
		t.Fatalf("Total = %d, want 157", got)
	}
	if got := sz.RowSum(0, 0, 3); got != 100 {
		t.Fatalf("RowSum(0) = %d, want 100", got)
	}
	if got := sz.ColSum(1, 0, 3); got != 150 {
		t.Fatalf("ColSum(1) = %d, want 150", got)
	}
	if got := sz.SumRect(0, 2, 0, 2); got != 107 {
		t.Fatalf("SumRect = %d, want 107", got)
	}
	if got := sz.MaxRect(0, 3, 0, 3); got != 100 {
		t.Fatalf("MaxRect = %d, want 100", got)
	}
	// Rank 0 exchanges bytes with rank 1 (both directions) but not 2.
	if got := sz.NonzeroPairs(0, 0, 3); got != 1 {
		t.Fatalf("NonzeroPairs(0) = %d, want 1", got)
	}
	// Rank 2 sends to 1 only; 1 sends nothing to 2 — still one pair.
	if got := sz.NonzeroPairs(2, 0, 3); got != 1 {
		t.Fatalf("NonzeroPairs(2) = %d, want 1", got)
	}
}

func TestSizeMatrixUniform(t *testing.T) {
	u := UniformSizeMatrix(4, 64)
	if m, ok := u.Uniform(); !ok || m != 64 {
		t.Fatalf("UniformSizeMatrix not detected uniform: m=%d ok=%v", m, ok)
	}
	u.Set(2, 3, 65)
	if _, ok := u.Uniform(); ok {
		t.Fatal("perturbed matrix still reported uniform")
	}
	z := NewSizeMatrix(4)
	if m, ok := z.Uniform(); !ok || m != 0 {
		t.Fatalf("all-zero matrix: m=%d ok=%v, want uniform 0", m, ok)
	}
	one := NewSizeMatrix(1)
	if _, ok := one.Uniform(); !ok {
		t.Fatal("1-rank matrix must be uniform")
	}
}

func TestSizeMatrixFromRowsValidation(t *testing.T) {
	rows := [][]int{
		{0, 10, 20},
		{1, 0, 2},
		{3, 4, 0},
	}
	sz := SizeMatrixFromRows(rows)
	rows[0][1] = 999 // the matrix must have copied
	if sz.At(0, 1) != 10 {
		t.Fatal("SizeMatrixFromRows retained the caller's slice")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("ragged rows", func() { SizeMatrixFromRows([][]int{{0, 1}, {1}}) })
	mustPanic("negative entry", func() { SizeMatrixFromRows([][]int{{0, -1}, {1, 0}}) })
	mustPanic("nonzero diagonal", func() { SizeMatrixFromRows([][]int{{5, 1}, {1, 0}}) })
	mustPanic("negative set", func() { NewSizeMatrix(2).Set(0, 1, -3) })
	mustPanic("diagonal set", func() { NewSizeMatrix(2).Set(1, 1, 3) })
	mustPanic("empty matrix", func() { NewSizeMatrix(0) })
}
