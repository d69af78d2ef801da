package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
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
// Nothing is allocated per entry: each entry line is walked once as bytes,
// split at ASCII white space and converted while it is scanned, with
// strconv's results and errors (see parseEntry), and ToCSR sorts the
// entries into their rows by counting.
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
	read := 0
	for sc.Scan() && read < nnz {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		i, j, v, err := parseEntry(line, want)
		if err != nil {
			return nil, err
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

// parseEntry reads the row index, the column index and, when want is 3,
// the value of a trimmed entry line (a pattern entry, want 2, reads as
// 1.0). The line is walked once: its first want fields are split in place
// at ASCII white space, and each field is converted while it is scanned,
// the indices by scanIndex and the value by scanValue. A field they do not
// fully account for goes to strconv, and a non-ASCII byte in a wanted field
// sends the whole line through strings.Fields, so Unicode white space
// still separates fields. Either way the numbers are strconv's, bit for
// bit, and a bad line fails with strconv's error, checked in the order
// short line, row, column, value. (Bytes after the last wanted field
// cannot change the entry and are not looked at.)
func parseEntry(line []byte, want int) (i, j int, v float64, err error) {
	var f [3][]byte
	var exact [3]bool
	n := 0
walk:
	for p := 0; n < want; n++ {
		for p < len(line) && asciiSpace[line[p]] {
			p++
		}
		if p == len(line) {
			break
		}
		start := p
		var read int
		switch n {
		case 0:
			i, read, exact[0] = scanIndex(line[p:])
		case 1:
			j, read, exact[1] = scanIndex(line[p:])
		default:
			v, read, exact[2] = scanValue(line[p:])
		}
		p += read
		if p < len(line) && !asciiSpace[line[p]] {
			exact[n] = false
			for ; p < len(line) && !asciiSpace[line[p]]; p++ {
				if line[p] >= utf8.RuneSelf {
					n, exact = unicodeFields(&f, line, want), [3]bool{}
					break walk
				}
			}
		}
		f[n] = line[start:p]
	}
	if n < want {
		return 0, 0, 0, fmt.Errorf("matrixmarket: short entry line %q", line)
	}
	if !exact[0] {
		if i, err = strconv.Atoi(string(f[0])); err != nil {
			return 0, 0, 0, fmt.Errorf("matrixmarket: bad row index %q: %v", f[0], err)
		}
	}
	if !exact[1] {
		if j, err = strconv.Atoi(string(f[1])); err != nil {
			return 0, 0, 0, fmt.Errorf("matrixmarket: bad col index %q: %v", f[1], err)
		}
	}
	if want == 2 {
		v = 1
	} else if !exact[2] {
		if v, err = strconv.ParseFloat(string(f[2]), 64); err != nil {
			return 0, 0, 0, fmt.Errorf("matrixmarket: bad value %q: %v", f[2], err)
		}
	}
	return i, j, v, nil
}

// unicodeFields puts the first want fields of line, split as strings.Fields
// splits, into f and returns how many there were.
func unicodeFields(f *[3][]byte, line []byte, want int) int {
	n := 0
	for _, s := range strings.Fields(string(line)) {
		if n == want {
			break
		}
		f[n] = []byte(s)
		n++
	}
	return n
}

// maxIndexDigits is the most decimal digits scanIndex converts: 10^18 - 1
// fits an int64 without overflow. Longer fields, which strconv.Atoi may
// still accept (leading zeros) or reject as out of range, go to it.
const maxIndexDigits = 18

// scanIndex reads the decimal digits that begin s and returns their value
// and count. ok reports 1 to maxIndexDigits digits whose value fits an int,
// which strconv.Atoi converts to the same value; it says nothing about the
// byte after them.
func scanIndex(s []byte) (x, n int, ok bool) {
	var u uint64
	for ; n < len(s) && s[n]-'0' < 10; n++ {
		u = u*10 + uint64(s[n]-'0')
	}
	return int(u), n, n >= 1 && n <= maxIndexDigits && u <= math.MaxInt
}

// scanValue reads a decimal number [-]digits[.digits][(e|E)[+-]digits] from
// the start of s, with at most four exponent digits, and returns it and the
// bytes it read. ok reports that the number is exact in Clinger's fast
// path: a significand m below 2^53 (so float64(m) is exact) and a decimal
// exponent e within ±22 (so 10^|e| is exact); then float64(m) times or
// divided by 10^|e| is one correctly rounded operation on exact operands,
// which is what strconv.ParseFloat returns. On !ok the caller parses the
// field with strconv.ParseFloat; like ok for scanIndex, ok says nothing
// about the byte after the number.
func scanValue(s []byte) (v float64, n int, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		n++
	}
	var m uint64
	digits := 0
	for ; n < len(s) && s[n]-'0' < 10; n++ {
		m = m*10 + uint64(s[n]-'0')
		digits++
	}
	if digits == 0 {
		return 0, n, false
	}
	frac := 0
	if n < len(s) && s[n] == '.' {
		for n++; n < len(s) && s[n]-'0' < 10; n++ {
			m = m*10 + uint64(s[n]-'0')
			frac++
		}
		if frac == 0 {
			return 0, n, false
		}
	}
	e := 0
	if n < len(s) && s[n]|0x20 == 'e' {
		n++
		sign := 1
		if n < len(s) && (s[n] == '+' || s[n] == '-') {
			if s[n] == '-' {
				sign = -1
			}
			n++
		}
		k := n
		for ; n < len(s) && s[n]-'0' < 10; n++ {
			e = e*10 + int(s[n]-'0')
		}
		if n == k || n-k > 4 {
			return 0, n, false
		}
		e *= sign
	}
	e -= frac
	// Up to 19 digits m cannot have wrapped (10^19 < 2^64).
	if digits+frac > 19 || m >= 1<<53 || e < -22 || e > 22 {
		return 0, n, false
	}
	v = float64(m)
	if e >= 0 {
		v *= exactPow10[e]
	} else {
		v /= exactPow10[-e]
	}
	if neg {
		v = -v
	}
	return v, n, true
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
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
