package sparse

import (
	"fmt"
	"sort"
)

// COO is a coordinate-format sparse matrix builder. Entries may be added in
// any order; duplicates are summed when converting to CSR. COO is the
// assembly format — generators build a COO and convert once (the Matrix
// Market reader sorts its entries into CSR rows directly).
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

// ToCSR converts to CSR: entries are sorted by (row, col), duplicates are
// summed, and entries that sum exactly to zero are dropped.
func (c *COO) ToCSR() *CSR {
	type ent struct {
		i, j int
		v    float64
	}
	ents := make([]ent, len(c.V))
	for k := range c.V {
		ents[k] = ent{c.I[k], c.J[k], c.V[k]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].i != ents[b].i {
			return ents[a].i < ents[b].i
		}
		return ents[a].j < ents[b].j
	})

	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	k := 0
	for k < len(ents) {
		i, j := ents[k].i, ents[k].j
		v := ents[k].v
		k++
		for k < len(ents) && ents[k].i == i && ents[k].j == j {
			v += ents[k].v
			k++
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
			m.RowPtr[i+1]++
		}
	}
	for i := 0; i < c.Rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}
