package sparse

import (
	"fmt"
	"slices"
	"sort"
)

// COO is a coordinate-format sparse matrix builder. Entries may be added in
// any order; duplicates are summed, in insertion order, when converting to
// CSR. COO is the assembly format — generators and the Matrix Market
// reader build a COO and convert once.
type COO struct {
	Rows, Cols int
	I, J       []int
	V          []float64
}

// NewCOO creates an empty COO matrix of the given dimensions.
func NewCOO(rows, cols int) *COO {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: NewCOO(%d, %d): dimensions must be positive", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Add appends the entry (i, j, v). Zero values are kept (they are dropped,
// after duplicate summation, by ToCSR). It panics on out-of-range indices so
// assembly bugs surface at the insertion site.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("sparse: COO.Add(%d,%d) out of range for %dx%d matrix", i, j, c.Rows, c.Cols))
	}
	c.I = append(c.I, i)
	c.J = append(c.J, j)
	c.V = append(c.V, v)
}

// AddSym appends (i, j, v) and, if i != j, also (j, i, v). Convenient for
// assembling symmetric matrices from their lower triangles.
func (c *COO) AddSym(i, j int, v float64) {
	c.Add(i, j, v)
	if i != j {
		c.Add(j, i, v)
	}
}

// NNZ returns the number of (not yet deduplicated) entries.
func (c *COO) NNZ() int { return len(c.V) }

// ToCSR converts to CSR: each row's entries sorted by column, entries
// that repeat a position summed in insertion order, and sums of exactly
// zero dropped. It sorts by counting, not globally: the entries are
// scattered into their rows in insertion order, and only a row whose
// columns arrive out of order is sorted, stably, so repeats stay in
// insertion order.
func (c *COO) ToCSR() *CSR {
	rows := c.Rows
	// ptr[i+1] counts row i, then ptr[i] holds row i's start; the scatter
	// advances ptr[i] to row i's end.
	ptr := make([]int, rows+1)
	for _, i := range c.I {
		ptr[i+1]++
	}
	for i := range rows {
		ptr[i+1] += ptr[i]
	}
	col := make([]int, len(c.V))
	val := make([]float64, len(c.V))
	for k, i := range c.I {
		col[ptr[i]], val[ptr[i]] = c.J[k], c.V[k]
		ptr[i]++
	}
	// Compact each row in place (the write index never passes the read
	// index); ptr[i] becomes the compacted row's end.
	row := &rowByColumn{}
	w, lo := 0, 0
	for i := range rows {
		hi := ptr[i]
		if !sort.IntsAreSorted(col[lo:hi]) {
			row.col, row.val = col[lo:hi], val[lo:hi]
			sort.Stable(row)
		}
		for k := lo; k < hi; {
			j, v := col[k], val[k]
			for k++; k < hi && col[k] == j; k++ {
				v += val[k]
			}
			if v != 0 {
				col[w], val[w] = j, v
				w++
			}
		}
		ptr[i] = w
		lo = hi
	}
	copy(ptr[1:], ptr[:rows])
	ptr[0] = 0
	if w < len(col) { // repeats or zeros were dropped: keep no slack
		col, val = slices.Clone(col[:w]), slices.Clone(val[:w])
	}
	return &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: ptr, ColIdx: col, Val: val}
}

// rowByColumn sorts one row's columns and values together, by column.
type rowByColumn struct {
	col []int
	val []float64
}

func (r *rowByColumn) Len() int           { return len(r.col) }
func (r *rowByColumn) Less(a, b int) bool { return r.col[a] < r.col[b] }
func (r *rowByColumn) Swap(a, b int) {
	r.col[a], r.col[b] = r.col[b], r.col[a]
	r.val[a], r.val[b] = r.val[b], r.val[a]
}
