package mats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestTrefethenSmall(t *testing.T) {
	m := Trefethen(8)
	// Diagonal: first 8 primes.
	want := []float64{2, 3, 5, 7, 11, 13, 17, 19}
	for i, w := range want {
		if m.At(i, i) != w {
			t.Errorf("diag[%d] = %g, want %g", i, m.At(i, i), w)
		}
	}
	// Off-diagonal ones at power-of-two offsets only.
	if m.At(0, 1) != 1 || m.At(0, 2) != 1 || m.At(0, 4) != 1 {
		t.Error("missing power-of-two couplings from row 0")
	}
	if m.At(0, 3) != 0 || m.At(0, 5) != 0 || m.At(0, 6) != 0 {
		t.Error("unexpected coupling at non-power-of-two offset")
	}
	if !m.IsSymmetric(0) {
		t.Error("Trefethen matrix must be symmetric")
	}
}

func TestTrefethen2000MatchesPaperTable1(t *testing.T) {
	m := Trefethen(2000)
	if m.Rows != 2000 {
		t.Fatalf("n = %d", m.Rows)
	}
	// Paper Table 1: nnz = 41,906.
	if m.NNZ() != 41906 {
		t.Errorf("nnz = %d, want 41906 (paper Table 1)", m.NNZ())
	}
}

func TestTrefethen20000NNZ(t *testing.T) {
	if testing.Short() {
		t.Skip("large matrix")
	}
	m := Trefethen(20000)
	// Paper Table 1: nnz = 554,466.
	if m.NNZ() != 554466 {
		t.Errorf("nnz = %d, want 554466 (paper Table 1)", m.NNZ())
	}
}

func TestFirstPrimes(t *testing.T) {
	p := firstPrimes(10)
	want := []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
	for i, w := range want {
		if p[i] != w {
			t.Fatalf("prime[%d] = %d, want %d", i, p[i], w)
		}
	}
	if got := firstPrimes(0); got != nil {
		t.Errorf("firstPrimes(0) = %v, want nil", got)
	}
	// 1000th prime is 7919.
	if p := firstPrimes(1000); p[999] != 7919 {
		t.Errorf("1000th prime = %d, want 7919", p[999])
	}
}

func TestFVDimensions(t *testing.T) {
	m := FV(98, 98, 1.368)
	if m.Rows != 9604 {
		t.Errorf("fv1 n = %d, want 9604", m.Rows)
	}
	// Nine-point stencil: interior rows have 9 entries.
	// nnz = 9wh - boundary deficit; must be within 5% of paper's 85264.
	if math.Abs(float64(m.NNZ())-85264) > 0.05*85264 {
		t.Errorf("fv1 nnz = %d, want ≈85264", m.NNZ())
	}
	if !m.IsSymmetric(0) {
		t.Error("FV matrix must be symmetric")
	}
	if !m.IsStrictlyDiagonallyDominant() {
		t.Error("FV with sigma>0 must be strictly diagonally dominant")
	}
}

func TestFVInteriorRow(t *testing.T) {
	m := FV(5, 5, 1.0)
	// Center of the grid: index 12 (x=2,y=2), 8 neighbours.
	i := 12
	cnt := m.RowPtr[i+1] - m.RowPtr[i]
	if cnt != 9 {
		t.Errorf("interior row has %d entries, want 9", cnt)
	}
	if m.At(i, i) != 9 {
		t.Errorf("interior diagonal = %g, want 9", m.At(i, i))
	}
	// Corner: 3 neighbours + diagonal.
	if got := m.RowPtr[1] - m.RowPtr[0]; got != 4 {
		t.Errorf("corner row has %d entries, want 4", got)
	}
}

func TestChem97ZtZStructure(t *testing.T) {
	n := 2541
	m := Chem97ZtZ(n)
	if m.Rows != n {
		t.Fatalf("n = %d", m.Rows)
	}
	if !m.IsSymmetric(1e-12) {
		t.Error("Chem97ZtZ analog must be symmetric")
	}
	// Paper Table 1 nnz = 7361; our triple construction gives n + 6*(n/3).
	wantNNZ := n + 6*(n/3)
	if m.NNZ() != wantNNZ {
		t.Errorf("nnz = %d, want %d", m.NNZ(), wantNNZ)
	}
	// Defining property: all off-diagonal entries at distance >= n/3, so
	// block-local submatrices are diagonal for any block size <= n/3.
	third := n / 3
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			if j != i && abs(i-j) < third {
				t.Fatalf("off-diagonal entry (%d,%d) at distance %d < n/3=%d", i, j, abs(i-j), third)
			}
		}
	}
	// With block size 448 (the paper's), every local block must be diagonal.
	p := sparse.NewBlockPartition(n, 448)
	f := p.OffBlockFraction(m)
	for b, v := range f {
		if v != 1 {
			t.Errorf("block %d off-block fraction = %g, want 1 (diagonal local blocks)", b, v)
		}
	}
}

func TestS1RMT3M1Structure(t *testing.T) {
	m := S1RMT3M1(5489)
	if m.Rows != 5489 {
		t.Fatalf("n = %d", m.Rows)
	}
	if !m.IsSymmetric(0) {
		t.Error("S1RMT3M1 analog must be symmetric")
	}
	// Interior row: 9-point stencil with binomial values.
	i := 2000
	if got := m.At(i, i); math.Abs(got-70) > 1e-3 {
		t.Errorf("diagonal = %g, want ≈70", got)
	}
	if m.At(i, i+1) != -56 || m.At(i, i+4) != 1 {
		t.Errorf("stencil wrong: %g %g", m.At(i, i+1), m.At(i, i+4))
	}
	// Decidedly NOT diagonally dominant: |off| sum 186 > 70.
	if m.IsStrictlyDiagonallyDominant() {
		t.Error("S1RMT3M1 analog must not be diagonally dominant")
	}
}

func TestPoisson2D(t *testing.T) {
	m := Poisson2D(4, 4)
	if m.Rows != 16 {
		t.Fatalf("n = %d", m.Rows)
	}
	if !m.IsSymmetric(0) {
		t.Error("Poisson must be symmetric")
	}
	// Interior point (1,1) = idx 5: 5 entries.
	if got := m.RowPtr[6] - m.RowPtr[5]; got != 5 {
		t.Errorf("interior row has %d entries, want 5", got)
	}
	if m.At(5, 5) != 4 || m.At(5, 4) != -1 || m.At(5, 9) != -1 {
		t.Error("five-point stencil values wrong")
	}
}

func TestDiagDominant(t *testing.T) {
	m := DiagDominant(50, 3, 1.5)
	if !m.IsStrictlyDiagonallyDominant() {
		t.Error("DiagDominant output not dominant")
	}
	if !m.IsSymmetric(1e-12) {
		t.Error("DiagDominant output not symmetric")
	}
}

func TestGenerateDispatch(t *testing.T) {
	for _, name := range Names {
		if name == "Trefethen_20000" && testing.Short() {
			continue
		}
		tm, err := Generate(name)
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		if tm.Name != name || tm.A == nil {
			t.Fatalf("Generate(%s) returned %+v", name, tm)
		}
		if err := tm.A.Validate(); err != nil {
			t.Fatalf("Generate(%s) invalid CSR: %v", name, err)
		}
	}
	if _, err := Generate("nope"); err == nil {
		t.Error("expected error for unknown matrix")
	}
}

func TestGenerateDimensionsMatchPaper(t *testing.T) {
	want := map[string]int{
		"Chem97ZtZ": 2541, "fv1": 9604, "fv2": 9801, "fv3": 9801, "s1rmt3m1": 5489,
		"Trefethen_2000": 2000,
	}
	for name, n := range want {
		if got := MustGenerate(name).A.Rows; got != n {
			t.Errorf("%s: n = %d, want %d (paper Table 1)", name, got, n)
		}
	}
}

// TestGenerateLimit: a name whose matrix has more rows than the bound is
// refused with a *sparse.RowLimitError before it is built, also when W·W
// overflows int; at its own row count it builds.
func TestGenerateLimit(t *testing.T) {
	for _, name := range append([]string{"poisson2d_31"}, Names...) {
		if name == "Trefethen_20000" && testing.Short() {
			continue
		}
		n := MustGenerate(name).A.Rows
		if _, err := GenerateLimit(name, n); err != nil {
			t.Errorf("GenerateLimit(%s, %d): %v", name, n, err)
		}
		_, err := GenerateLimit(name, n-1)
		var rl *sparse.RowLimitError
		if !errors.As(err, &rl) || *rl != (sparse.RowLimitError{Rows: n, Limit: n - 1}) {
			t.Errorf("GenerateLimit(%s, %d) = %v, want a row-limit refusal of %d rows", name, n-1, err, n)
		}
	}
	_, err := GenerateLimit("poisson2d_3037000501", 1<<20)
	var rl *sparse.RowLimitError
	if !errors.As(err, &rl) || rl.Rows != math.MaxInt {
		t.Errorf("GenerateLimit of an overflowing W = %v, want a refusal of math.MaxInt rows", err)
	}
}

// Property: FV matrices are SPD-consistent for any sigma > 0 — strictly
// diagonally dominant with positive diagonal.
func TestPropertyFVDominant(t *testing.T) {
	f := func(w8, h8 uint8, s uint8) bool {
		w := int(w8%12) + 2
		h := int(h8%12) + 2
		sigma := float64(s%100)/100 + 0.01
		return FV(w, h, sigma).IsStrictlyDiagonallyDominant()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Trefethen matrices are symmetric with positive diagonal for
// arbitrary sizes.
func TestPropertyTrefethenWellFormed(t *testing.T) {
	f := func(n8 uint8) bool {
		n := int(n8%60) + 1
		m := Trefethen(n)
		if !m.IsSymmetric(0) {
			return false
		}
		for i := 0; i < n; i++ {
			if m.At(i, i) < 2 {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestScaleSymPreservesNormalizedSpectrum(t *testing.T) {
	a := FV(12, 12, 1.0)
	s := ScaleSym(a, 50)
	if !s.IsSymmetric(1e-9) {
		t.Error("scaled matrix must stay symmetric")
	}
	// The normalized matrices D^{-1/2}AD^{-1/2} must be identical entry by
	// entry: n'_ij = s_i s_j a_ij / sqrt(s_i² a_ii · s_j² a_jj) = n_ij.
	normAt := func(m *sparse.CSR, i, j int) float64 {
		return m.At(i, j) / math.Sqrt(m.At(i, i)*m.At(j, j))
	}
	for i := 0; i < a.Rows; i += 17 {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if math.Abs(normAt(a, i, j)-normAt(s, i, j)) > 1e-12 {
				t.Fatalf("normalized entry (%d,%d) changed", i, j)
			}
		}
	}
	// cond(A) must inflate by roughly smax².
	if s.At(a.Rows-1, a.Rows-1) < 2000*a.At(a.Rows-1, a.Rows-1) {
		t.Errorf("late diagonal should scale by ≈smax²: %g vs %g",
			s.At(a.Rows-1, a.Rows-1), a.At(a.Rows-1, a.Rows-1))
	}
}

func TestScaleSymPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ScaleSym(FV(3, 3, 1), 0)
}

func TestTilePermutationIsPermutation(t *testing.T) {
	perm := TilePermutation(10, 7, 3, 4)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("invalid permutation value %d", p)
		}
		seen[p] = true
	}
}

func TestFVTiledReducesOffBlockFraction(t *testing.T) {
	// The point of the tiling: 128-row blocks capture far more of the
	// stencil coupling than under row-major ordering.
	rowMajor := FV(64, 64, 1.0)
	tiled := FVTiled(64, 64, 1.0)
	part := sparse.NewBlockPartition(64*64, 128)
	mean := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	fr := mean(part.OffBlockFraction(rowMajor))
	ft := mean(part.OffBlockFraction(tiled))
	if !(ft < fr/2) {
		t.Errorf("tiling should at least halve the off-block fraction: %g -> %g", fr, ft)
	}
}
