package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// Row i occupies the half-open index range [RowPtr[i], RowPtr[i+1]) of
// ColIdx and Val. Column indices within a row are kept sorted in ascending
// order by all constructors in this package; methods that rely on the
// ordering (Diagonal, binary-searched At) document the assumption.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // length Rows+1
	ColIdx     []int     // length NNZ
	Val        []float64 // length NNZ
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Dims returns the matrix dimensions (rows, cols).
func (m *CSR) Dims() (int, int) { return m.Rows, m.Cols }

// Validate checks structural invariants: monotone row pointers, in-range
// sorted column indices, and consistent array lengths. It returns a
// descriptive error for the first violation found.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != len(m.Val) {
		return fmt.Errorf("sparse: RowPtr[end] = %d, want NNZ %d", m.RowPtr[m.Rows], len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: row %d has decreasing row pointer (%d > %d)", i, lo, hi)
		}
		prev := -1
		for p := lo; p < hi; p++ {
			c := m.ColIdx[p]
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: row %d has out-of-range column %d", i, c)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d has unsorted or duplicate column %d", i, c)
			}
			prev = c
		}
	}
	return nil
}

// At returns the entry at (i, j), or 0 if it is not stored. Column indices
// must be sorted within each row (as all constructors here guarantee); the
// lookup is a binary search within the row.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range for %dx%d matrix", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return m.Val[lo+k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return c
}

// MulVec computes y = A*x. It panics if dimensions disagree.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dims: A is %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := range y {
		y[i] = m.RowDot(i, x)
	}
}

// RowDot returns the dot product of row i with x, i.e. (A*x)[i], summed in
// CSR order. The row's column and value slices are resliced to one length,
// so only the x[col] load carries a bounds check.
func (m *CSR) RowDot(i int, x []float64) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	cols := m.ColIdx[lo:hi]
	vals := m.Val[lo:hi][:len(cols)]
	var s float64
	for p, c := range cols {
		s += vals[p] * x[c]
	}
	return s
}

// Diagonal extracts the main diagonal into a new slice. Entries absent from
// the sparsity pattern are zero.
func (m *CSR) Diagonal() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int, m.Cols+1),
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	// Count entries per column of A (= per row of Aᵀ).
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			c := m.ColIdx[p]
			q := next[c]
			next[c]++
			t.ColIdx[q] = i
			t.Val[q] = m.Val[p]
		}
	}
	// Rows of Aᵀ are produced in ascending original-row order, so column
	// indices are already sorted.
	return t
}

// IsSymmetric reports whether the matrix equals its transpose to within tol
// (elementwise absolute difference).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] != t.RowPtr[i] {
			return false
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p] != t.ColIdx[p] || math.Abs(m.Val[p]-t.Val[p]) > tol {
				return false
			}
		}
	}
	return true
}

// Abs returns |A|: the matrix with every stored entry replaced by its
// absolute value. Used for the Strikwerda condition ρ(|B|) < 1.
func (m *CSR) Abs() *CSR {
	a := m.Clone()
	for i, v := range a.Val {
		a.Val[i] = math.Abs(v)
	}
	return a
}

// Scale multiplies every stored entry by s, in place.
func (m *CSR) Scale(s float64) {
	for i := range m.Val {
		m.Val[i] *= s
	}
}

// MaxAbsRowSum returns the infinity norm ‖A‖∞ = max_i Σ_j |a_ij|.
func (m *CSR) MaxAbsRowSum() float64 {
	var best float64
	for i := 0; i < m.Rows; i++ {
		var s float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			s += math.Abs(m.Val[p])
		}
		if s > best {
			best = s
		}
	}
	return best
}

// DiagonalDominance returns, for each row, the ratio
// |a_ii| / Σ_{j≠i} |a_ij|; +Inf for rows with an empty off-diagonal part.
// Values greater than 1 in every row mean strict diagonal dominance.
func (m *CSR) DiagonalDominance() []float64 {
	r := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var diag, off float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p] == i {
				diag = math.Abs(m.Val[p])
			} else {
				off += math.Abs(m.Val[p])
			}
		}
		if off == 0 {
			r[i] = math.Inf(1)
		} else {
			r[i] = diag / off
		}
	}
	return r
}

// IsStrictlyDiagonallyDominant reports whether |a_ii| > Σ_{j≠i}|a_ij| holds
// for every row.
func (m *CSR) IsStrictlyDiagonallyDominant() bool {
	for i := 0; i < m.Rows; i++ {
		var diag, off float64
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.ColIdx[p] == i {
				diag = math.Abs(m.Val[p])
			} else {
				off += math.Abs(m.Val[p])
			}
		}
		if diag <= off {
			return false
		}
	}
	return true
}

// JacobiIterationMatrix returns B = I − D⁻¹A as a new CSR matrix. The
// diagonal of A must be nonzero everywhere; ErrZeroDiagonal is returned
// otherwise. B has the same sparsity pattern as A except that exact zeros on
// the diagonal of B (the common case, since B_ii = 1 − a_ii/a_ii = 0) are
// dropped.
func (m *CSR) JacobiIterationMatrix() (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("sparse: iteration matrix requires square input, have %dx%d", m.Rows, m.Cols)
	}
	d := m.Diagonal()
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("%w: row %d", ErrZeroDiagonal, i)
		}
	}
	b := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			var v float64
			if j == i {
				v = 1 - m.Val[p]/d[i]
			} else {
				v = -m.Val[p] / d[i]
			}
			if v != 0 {
				b.ColIdx = append(b.ColIdx, j)
				b.Val = append(b.Val, v)
			}
		}
		b.RowPtr[i+1] = len(b.Val)
	}
	return b, nil
}

// ErrZeroDiagonal is returned when an operation requires a nonzero diagonal
// (Jacobi splitting, iteration matrices) and A has a zero diagonal entry.
var ErrZeroDiagonal = errors.New("sparse: zero diagonal entry")

// Splitting is the (D, L+U) decomposition used by relaxation methods, with
// the inverse diagonal precomputed.
type Splitting struct {
	InvDiag []float64 // 1/a_ii
	Diag    []float64 // a_ii
}

// NewSplitting extracts the Jacobi splitting of A. It returns
// ErrZeroDiagonal if any a_ii is zero.
func NewSplitting(a *CSR) (*Splitting, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: splitting requires square matrix, have %dx%d", a.Rows, a.Cols)
	}
	d := a.Diagonal()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			return nil, fmt.Errorf("%w: row %d", ErrZeroDiagonal, i)
		}
		inv[i] = 1 / v
	}
	return &Splitting{InvDiag: inv, Diag: d}, nil
}

// PermuteSym applies the symmetric permutation P·A·Pᵀ: entry (i, j) moves
// to (perm[i], perm[j]). perm must be a permutation of 0..n−1; the result
// has the same spectrum, symmetry and dominance properties as A.
func PermuteSym(a *CSR, perm []int) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: PermuteSym requires square matrix, have %dx%d", a.Rows, a.Cols)
	}
	if len(perm) != a.Rows {
		return nil, fmt.Errorf("sparse: permutation length %d, want %d", len(perm), a.Rows)
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return nil, fmt.Errorf("sparse: invalid permutation (index %d)", p)
		}
		seen[p] = true
	}
	c := NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			c.Add(perm[i], perm[a.ColIdx[q]], a.Val[q])
		}
	}
	return c.ToCSR(), nil
}

// BlockPartition describes a contiguous partition of row indices into
// blocks, as used by the block-asynchronous method (each block corresponds
// to one GPU thread block / subdomain).
type BlockPartition struct {
	N      int   // total number of rows
	Starts []int // Starts[i] is the first row of block i; len = NumBlocks+1
}

// NewBlockPartition splits n rows into contiguous blocks of the given size
// (the last block may be smaller). It panics for non-positive inputs.
func NewBlockPartition(n, blockSize int) BlockPartition {
	if n <= 0 || blockSize <= 0 {
		panic(fmt.Sprintf("sparse: NewBlockPartition(%d, %d): arguments must be positive", n, blockSize))
	}
	var starts []int
	for s := 0; s < n; s += blockSize {
		starts = append(starts, s)
	}
	starts = append(starts, n)
	return BlockPartition{N: n, Starts: starts}
}

// NumBlocks returns the number of blocks.
func (p BlockPartition) NumBlocks() int { return len(p.Starts) - 1 }

// Bounds returns [start, end) row bounds of block b.
func (p BlockPartition) Bounds(b int) (int, int) { return p.Starts[b], p.Starts[b+1] }

// Size returns the number of rows in block b.
func (p BlockPartition) Size(b int) int { return p.Starts[b+1] - p.Starts[b] }

// BlockOf returns the block index containing row i.
func (p BlockPartition) BlockOf(i int) int {
	// Binary search over Starts: largest b with Starts[b] <= i.
	b := sort.SearchInts(p.Starts, i+1) - 1
	return b
}

// OffBlockFraction returns, for each block, the fraction of the absolute
// off-diagonal mass of its rows that falls *outside* the block:
// Σ_{i∈J} Σ_{j∉J,j≠i} |a_ij| / Σ_{i∈J} Σ_{j≠i} |a_ij|.
// This is the quantity the paper ties to async-(k)'s convergence gain: local
// iterations only see in-block entries.
func (p BlockPartition) OffBlockFraction(a *CSR) []float64 {
	f := make([]float64, p.NumBlocks())
	for b := 0; b < p.NumBlocks(); b++ {
		lo, hi := p.Bounds(b)
		var inBlock, total float64
		for i := lo; i < hi; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				j := a.ColIdx[q]
				if j == i {
					continue
				}
				v := math.Abs(a.Val[q])
				total += v
				if j >= lo && j < hi {
					inBlock += v
				}
			}
		}
		if total == 0 {
			f[b] = 0
		} else {
			f[b] = 1 - inBlock/total
		}
	}
	return f
}
