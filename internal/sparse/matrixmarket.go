package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Matrix Market I/O. Supports the subset of the format the UFMC collection
// uses for the paper's test matrices: "matrix coordinate real
// {general|symmetric}" and "matrix coordinate pattern {general|symmetric}"
// (pattern entries read as 1.0).

// maxMMDim bounds the dimensions ReadMatrixMarket accepts. CSR storage
// allocates rows+1 row pointers before a single entry is validated, so
// without a bound a three-integer size line can demand gigabytes. 2^24
// rows is an order of magnitude above the largest collection matrix the
// paper uses.
const maxMMDim = 1 << 24

// maxMMHint caps the entries ReadMatrixMarket preallocates from a size
// line's count (12 MiB of them): the count comes from outside the program,
// so a line declaring billions of entries that never follow must not
// allocate for them. Larger matrices grow the buffer as entries arrive.
const maxMMHint = 1 << 19

// ReadMatrixMarket parses a Matrix Market coordinate stream into CSR.
// Symmetric files must be square and are expanded to full storage.
// The entries are assembled through COO.ToCSR in file order, so entries
// that repeat a position are summed in file order, and a sum of exactly
// zero is dropped.
//
// Nothing is allocated per entry: lines are scanned as bytes and split at
// ASCII white space by hand (a non-ASCII byte among the fields sends the
// line through strings.Fields, so Unicode white space still separates
// them), and ToCSR sorts the entries into their rows by counting.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	return ReadMatrixMarketLimit(r, 0)
}

// RowLimitError refuses a matrix with more rows than the caller allows,
// before anything is sized from it: ReadMatrixMarketLimit's answer to such
// a size line, and mats.GenerateLimit's to such a name.
type RowLimitError struct {
	Rows, Limit int
}

// Error implements the error interface.
func (e *RowLimitError) Error() string {
	return fmt.Sprintf("sparse: %d rows exceed the limit %d", e.Rows, e.Limit)
}

// ReadMatrixMarketLimit is ReadMatrixMarket with a caller's row bound:
// a size line declaring more than maxRows rows fails with a
// *RowLimitError before anything is sized from it. maxRows <= 0 leaves
// only the reader's own bound.
func ReadMatrixMarketLimit(r io.Reader, maxRows int) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

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
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		if _, err := fmt.Sscan(string(line), &rows, &cols, &nnz); err != nil {
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
	if maxRows > 0 && rows > maxRows {
		return nil, &RowLimitError{Rows: rows, Limit: maxRows}
	}
	if nnz < 0 {
		return nil, fmt.Errorf("matrixmarket: negative entry count %d", nnz)
	}
	if symmetric && rows != cols {
		return nil, fmt.Errorf("matrixmarket: symmetric matrix must be square, have %dx%d", rows, cols)
	}

	want := 3
	if pattern {
		want = 2
	}
	hint := min(nnz, maxMMHint)
	if symmetric {
		hint = min(2*hint, maxMMHint)
	}
	c := &COO{Rows: rows, Cols: cols, I: make([]int, 0, hint), J: make([]int, 0, hint), V: make([]float64, 0, hint)}
	var fields [3][]byte
	read := 0
	for sc.Scan() && read < nnz {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		f := appendFields(fields[:0], line, want)
		if len(f) < want {
			return nil, fmt.Errorf("matrixmarket: short entry line %q", line)
		}
		i, err := strconv.Atoi(string(f[0]))
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("matrixmarket: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("matrixmarket: entry (%d,%d) out of range for %dx%d", i, j, rows, cols)
		}
		if symmetric {
			c.AddSym(i-1, j-1, v)
		} else {
			c.Add(i-1, j-1, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("matrixmarket: read: %w", err)
	}
	if read < nnz {
		return nil, fmt.Errorf("matrixmarket: expected %d entries, got %d", nnz, read)
	}
	return c.ToCSR(), nil
}

// appendFields appends the first want fields of line to dst, split at white
// space as strings.Fields splits. An ASCII line is split in place; a
// non-ASCII byte before the last wanted field ends sends the line through
// strings.Fields, so Unicode white space still separates fields. (Bytes
// after that point cannot change the first want fields.)
func appendFields(dst [][]byte, line []byte, want int) [][]byte {
	rest := line
	for len(dst) < want {
		k := 0
		for k < len(rest) && asciiSpace[rest[k]] {
			k++
		}
		rest = rest[k:]
		if len(rest) == 0 {
			break
		}
		k = 0
		for ; k < len(rest) && !asciiSpace[rest[k]]; k++ {
			if rest[k] >= utf8.RuneSelf {
				dst = dst[:0]
				for _, s := range strings.Fields(string(line)) {
					if len(dst) == want {
						break
					}
					dst = append(dst, []byte(s))
				}
				return dst
			}
		}
		dst = append(dst, rest[:k])
		rest = rest[k:]
	}
	return dst
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// WriteMatrixMarket writes the matrix in "coordinate real general" format.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[p]+1, m.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
