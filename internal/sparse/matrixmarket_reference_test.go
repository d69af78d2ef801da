package sparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// readMatrixMarketReference is the COO-based Matrix Market reader that
// ReadMatrixMarket replaced, kept as the reference the equivalence tests
// compare against. It returns the unsummed COO builder (symmetric
// off-diagonals added through AddSym); referenceCSR assembles it.
func readMatrixMarketReference(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	if !sc.Scan() {
		return nil, fmt.Errorf("matrixmarket: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matrixmarket: bad header %q", sc.Text())
	}
	format, field, symm := header[2], header[3], header[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("matrixmarket: unsupported format %q (only coordinate)", format)
	}
	pattern := false
	switch field {
	case "real", "integer":
	case "pattern":
		pattern = true
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported field %q", field)
	}
	symmetric := false
	switch symm {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported symmetry %q", symm)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("matrixmarket: bad size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("matrixmarket: bad dimensions %dx%d", rows, cols)
	}
	if rows > maxMMDim || cols > maxMMDim {
		return nil, fmt.Errorf("matrixmarket: dimensions %dx%d exceed the supported bound %d", rows, cols, maxMMDim)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("matrixmarket: negative entry count %d", nnz)
	}
	if symmetric && rows != cols {
		return nil, fmt.Errorf("matrixmarket: symmetric matrix must be square, have %dx%d", rows, cols)
	}

	coo := NewCOO(rows, cols)
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if pattern {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("matrixmarket: short entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrixmarket: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("matrixmarket: entry (%d,%d) out of range for %dx%d", i, j, rows, cols)
		}
		if symmetric && i != j {
			coo.AddSym(i-1, j-1, v)
		} else {
			coo.Add(i-1, j-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrixmarket: read: %w", err)
	}
	if read < nnz {
		return nil, fmt.Errorf("matrixmarket: expected %d entries, got %d", nnz, read)
	}
	return coo, nil
}

// referenceCSR assembles c without COO.ToCSR, so that the tests comparing
// against it check the reader and ToCSR together: one stable sort of all
// entries by (row, column), repeats of a position summed in insertion
// order, and sums of exactly zero dropped.
func referenceCSR(c *COO) *CSR {
	order := make([]int, c.NNZ())
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(x, y int) bool {
		p, q := order[x], order[y]
		return c.I[p] < c.I[q] || c.I[p] == c.I[q] && c.J[p] < c.J[q]
	})
	m := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	for x := 0; x < len(order); {
		i, j, v := c.I[order[x]], c.J[order[x]], c.V[order[x]]
		for x++; x < len(order) && c.I[order[x]] == i && c.J[order[x]] == j; x++ {
			v += c.V[order[x]]
		}
		if v != 0 {
			m.ColIdx = append(m.ColIdx, j)
			m.Val = append(m.Val, v)
			m.RowPtr[i+1]++
		}
	}
	for i := range c.Rows {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}
