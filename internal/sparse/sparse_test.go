package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// small4 builds the 4x4 test matrix
//
//	[ 4 -1  0  0]
//	[-1  4 -1  0]
//	[ 0 -1  4 -1]
//	[ 0  0 -1  4]
func small4(t *testing.T) *CSR {
	t.Helper()
	c := NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < 3 {
			c.Add(i, i+1, -1)
		}
	}
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatalf("small4 invalid: %v", err)
	}
	return m
}

// randomCSR builds a random square matrix with a guaranteed nonzero diagonal.
func randomCSR(rng *rand.Rand, n int, density float64) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1+rng.Float64()*4)
		for j := 0; j < n; j++ {
			if j != i && rng.Float64() < density {
				c.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

func TestCOOToCSRBasic(t *testing.T) {
	m := small4(t)
	if m.NNZ() != 10 {
		t.Errorf("NNZ = %d, want 10", m.NNZ())
	}
	if got := m.At(1, 2); got != -1 {
		t.Errorf("At(1,2) = %g, want -1", got)
	}
	if got := m.At(0, 3); got != 0 {
		t.Errorf("At(0,3) = %g, want 0", got)
	}
	if got := m.At(2, 2); got != 4 {
		t.Errorf("At(2,2) = %g, want 4", got)
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	c.Add(1, 1, 5)
	c.Add(0, 1, 3)
	c.Add(0, 1, -3) // cancels to zero, must be dropped
	m := c.ToCSR()
	if got := m.At(0, 0); got != 3 {
		t.Errorf("summed duplicate = %g, want 3", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (zero-sum entry should be dropped)", m.NNZ())
	}
}

// TestCOOToCSRAssembly pins ToCSR's rules: columns sorted within each
// row, repeats of a position summed in insertion order (stably sorted
// along with their row), and sums of exactly zero dropped. In floating
// point the order matters: 1e16 + 1 − 1e16 is 0, while 1e16 − 1e16 + 1
// is 1.
func TestCOOToCSRAssembly(t *testing.T) {
	type entry struct {
		i, j int
		v    float64
	}
	// A long row in descending column order, so a sort that is not stable
	// could reorder the repeats of column 5 spread through it.
	var long []entry
	for j := 19; j >= 0; j-- {
		if j != 5 {
			long = append(long, entry{0, j, float64(j + 1)})
		}
		switch j {
		case 15:
			long = append(long, entry{0, 5, 1e16})
		case 10:
			long = append(long, entry{0, 5, -1e16})
		case 0:
			long = append(long, entry{0, 5, 1})
		}
	}
	for _, tc := range []struct {
		name       string
		rows, cols int
		entries    []entry
		want       *CSR
	}{
		{"no entries", 2, 3, nil,
			&CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}},
		{"unsorted rows", 2, 3, []entry{{1, 2, 5}, {0, 2, 1}, {1, 0, 4}, {0, 0, 2}, {1, 1, 3}},
			&CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 2, 5}, ColIdx: []int{0, 2, 0, 1, 2}, Val: []float64{2, 1, 4, 3, 5}}},
		{"empty rows", 4, 3, []entry{{3, 0, 1}, {1, 2, 5}},
			&CSR{Rows: 4, Cols: 3, RowPtr: []int{0, 0, 1, 1, 2}, ColIdx: []int{2, 0}, Val: []float64{5, 1}}},
		{"zero sums dropped", 2, 2, []entry{{0, 1, 3}, {0, 0, 1}, {0, 1, -3}, {1, 1, 0}},
			&CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 1}, ColIdx: []int{0}, Val: []float64{1}}},
		{"insertion order", 2, 2, []entry{{0, 0, 1e16}, {1, 1, 1e16}, {0, 0, 1}, {1, 0, 2}, {1, 1, -1e16}, {0, 0, -1e16}, {1, 1, 1}},
			&CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 0, 2}, ColIdx: []int{0, 1}, Val: []float64{2, 1}}},
		{"insertion order in a long row", 1, 20, long,
			&CSR{Rows: 1, Cols: 20, RowPtr: []int{0, 20},
				ColIdx: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19},
				Val:    []float64{1, 2, 3, 4, 5, 1, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}}},
	} {
		c := NewCOO(tc.rows, tc.cols)
		for _, e := range tc.entries {
			c.Add(e.i, e.j, e.v)
		}
		if msg := csrBitsDiffer(c.ToCSR(), tc.want); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range Add")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestMulVec(t *testing.T) {
	m := small4(t)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	m.MulVec(y, x)
	want := []float64{2, 4, 6, 13}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Errorf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestMulVecDimPanic(t *testing.T) {
	m := small4(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	m.MulVec(make([]float64, 4), make([]float64, 3))
}

func TestRowDotMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 30, 0.2)
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 30)
	m.MulVec(y, x)
	for i := 0; i < 30; i++ {
		if d := m.RowDot(i, x); math.Abs(d-y[i]) > 1e-12 {
			t.Errorf("RowDot(%d) = %g, MulVec gave %g", i, d, y[i])
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := small4(t)
	d := m.Diagonal()
	for i, v := range d {
		if v != 4 {
			t.Errorf("d[%d] = %g, want 4", i, v)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(rng, 25, 0.15)
	tt := m.Transpose().Transpose()
	if err := tt.Validate(); err != nil {
		t.Fatalf("transpose-of-transpose invalid: %v", err)
	}
	if tt.NNZ() != m.NNZ() {
		t.Fatalf("NNZ changed: %d -> %d", m.NNZ(), tt.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			if tt.At(i, j) != m.Val[p] {
				t.Fatalf("(Aᵀ)ᵀ differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeEntries(t *testing.T) {
	c := NewCOO(2, 3)
	c.Add(0, 2, 7)
	c.Add(1, 0, -2)
	m := c.ToCSR().Transpose()
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("transpose dims %dx%d, want 3x2", m.Rows, m.Cols)
	}
	if m.At(2, 0) != 7 || m.At(0, 1) != -2 {
		t.Errorf("transposed entries wrong: At(2,0)=%g At(0,1)=%g", m.At(2, 0), m.At(0, 1))
	}
}

func TestIsSymmetric(t *testing.T) {
	if !small4(t).IsSymmetric(0) {
		t.Error("small4 should be symmetric")
	}
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(0, 0, 1)
	c.Add(1, 1, 1)
	if c.ToCSR().IsSymmetric(0) {
		t.Error("asymmetric matrix reported symmetric")
	}
}

func TestAbs(t *testing.T) {
	m := small4(t).Abs()
	for _, v := range m.Val {
		if v < 0 {
			t.Fatalf("Abs left negative value %g", v)
		}
	}
	if m.At(0, 1) != 1 {
		t.Errorf("Abs At(0,1) = %g, want 1", m.At(0, 1))
	}
}

func TestJacobiIterationMatrix(t *testing.T) {
	m := small4(t)
	b, err := m.JacobiIterationMatrix()
	if err != nil {
		t.Fatal(err)
	}
	// B = I - D^{-1}A: diagonal zero (dropped), off-diagonal 1/4.
	for i := 0; i < 4; i++ {
		if b.At(i, i) != 0 {
			t.Errorf("B diagonal at %d = %g, want 0", i, b.At(i, i))
		}
	}
	if math.Abs(b.At(0, 1)-0.25) > 1e-15 {
		t.Errorf("B(0,1) = %g, want 0.25", b.At(0, 1))
	}
}

func TestJacobiIterationMatrixZeroDiag(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 1)
	if _, err := c.ToCSR().JacobiIterationMatrix(); err == nil {
		t.Fatal("expected ErrZeroDiagonal")
	}
}

func TestNewSplitting(t *testing.T) {
	s, err := NewSplitting(small4(t))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range s.InvDiag {
		if math.Abs(v-0.25) > 1e-15 {
			t.Errorf("InvDiag[%d] = %g, want 0.25", i, v)
		}
	}
}

func TestDiagonalDominance(t *testing.T) {
	m := small4(t)
	dd := m.DiagonalDominance()
	// Interior rows: 4 / 2 = 2; boundary rows: 4 / 1 = 4.
	if dd[0] != 4 || dd[3] != 4 {
		t.Errorf("boundary dominance = %g,%g, want 4,4", dd[0], dd[3])
	}
	if dd[1] != 2 || dd[2] != 2 {
		t.Errorf("interior dominance = %g,%g, want 2,2", dd[1], dd[2])
	}
	if !m.IsStrictlyDiagonallyDominant() {
		t.Error("small4 should be strictly diagonally dominant")
	}
}

func TestMaxAbsRowSum(t *testing.T) {
	if got := small4(t).MaxAbsRowSum(); got != 6 {
		t.Errorf("inf norm = %g, want 6", got)
	}
}

func TestBlockPartition(t *testing.T) {
	p := NewBlockPartition(10, 3)
	if p.NumBlocks() != 4 {
		t.Fatalf("NumBlocks = %d, want 4", p.NumBlocks())
	}
	lo, hi := p.Bounds(3)
	if lo != 9 || hi != 10 {
		t.Errorf("last block = [%d,%d), want [9,10)", lo, hi)
	}
	for i := 0; i < 10; i++ {
		b := p.BlockOf(i)
		lo, hi := p.Bounds(b)
		if i < lo || i >= hi {
			t.Errorf("BlockOf(%d) = %d with bounds [%d,%d)", i, b, lo, hi)
		}
	}
	// Sizes sum to N.
	sum := 0
	for b := 0; b < p.NumBlocks(); b++ {
		sum += p.Size(b)
	}
	if sum != 10 {
		t.Errorf("block sizes sum to %d, want 10", sum)
	}
}

func TestBlockPartitionExact(t *testing.T) {
	p := NewBlockPartition(8, 4)
	if p.NumBlocks() != 2 || p.Size(0) != 4 || p.Size(1) != 4 {
		t.Errorf("exact partition wrong: %+v", p)
	}
}

func TestOffBlockFraction(t *testing.T) {
	// Tridiagonal: with block size 2, each 2-row block has exactly one
	// off-block coupling out of its off-diagonal entries.
	m := small4(t)
	p := NewBlockPartition(4, 2)
	f := p.OffBlockFraction(m)
	// Block 0: rows 0,1. Off-diag mass: row0: |−1|(col1,in) ; row1: |−1|(col0,in)+|−1|(col2,out).
	// total=3, out=1 -> 1/3.
	if math.Abs(f[0]-1.0/3.0) > 1e-15 {
		t.Errorf("f[0] = %g, want 1/3", f[0])
	}
	// Pure block-diagonal matrix: zero off-block fraction.
	c := NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 2)
	}
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	f2 := NewBlockPartition(4, 2).OffBlockFraction(c.ToCSR())
	if f2[0] != 0 || f2[1] != 0 {
		t.Errorf("block-diagonal off-block fraction = %v, want zeros", f2)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := small4(t)
	m.ColIdx[0] = 99
	if err := m.Validate(); err == nil {
		t.Error("expected validation failure for out-of-range column")
	}
	m = small4(t)
	m.RowPtr[1] = 0
	m.RowPtr[0] = 2
	if err := m.Validate(); err == nil {
		t.Error("expected validation failure for non-monotone RowPtr")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := small4(t)
	c := m.Clone()
	c.Val[0] = 999
	if m.Val[0] == 999 {
		t.Error("Clone shares Val storage")
	}
}

// Property: (A+Aᵀ) is symmetric for random A.
func TestPropertySymmetrization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		a := randomCSR(rng, n, 0.2)
		at := a.Transpose()
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				c.Add(i, a.ColIdx[p], a.Val[p])
			}
			for p := at.RowPtr[i]; p < at.RowPtr[i+1]; p++ {
				c.Add(i, at.ColIdx[p], at.Val[p])
			}
		}
		return c.ToCSR().IsSymmetric(1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: MulVec is linear: A(αx + y) = αAx + Ay.
func TestPropertyMulVecLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		a := randomCSR(rng, n, 0.3)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		alpha := rng.NormFloat64()
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = alpha*x[i] + y[i]
		}
		lhs := make([]float64, n)
		a.MulVec(lhs, comb)
		ax := make([]float64, n)
		ay := make([]float64, n)
		a.MulVec(ax, x)
		a.MulVec(ay, y)
		for i := range lhs {
			if math.Abs(lhs[i]-(alpha*ax[i]+ay[i])) > 1e-9*(1+math.Abs(lhs[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: transpose preserves xᵀAy = yᵀAᵀx.
func TestPropertyTransposeBilinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		a := randomCSR(rng, n, 0.25)
		at := a.Transpose()
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		ay := make([]float64, n)
		a.MulVec(ay, y)
		atx := make([]float64, n)
		at.MulVec(atx, x)
		var lhs, rhs float64
		for i := 0; i < n; i++ {
			lhs += x[i] * ay[i]
			rhs += y[i] * atx[i]
		}
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
