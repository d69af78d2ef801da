package sparse

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 3 4.0
1 3 -1.5
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 4 {
		t.Fatalf("got %dx%d nnz=%d", m.Rows, m.Cols, m.NNZ())
	}
	if m.At(0, 2) != -1.5 {
		t.Errorf("At(0,2) = %g, want -1.5", m.At(0, 2))
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 2.0
2 1 -1.0
3 3 5.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Errorf("symmetric expansion failed: At(0,1)=%g At(1,0)=%g", m.At(0, 1), m.At(1, 0))
	}
	if m.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4 after expansion", m.NNZ())
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 {
		t.Error("pattern entries should read as 1.0")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"badheader", "%%NotMM matrix coordinate real general\n1 1 0\n"},
		{"array", "%%MatrixMarket matrix array real general\n1 1\n"},
		{"badfield", "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"},
		{"badsymm", "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n"},
		{"outofrange", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"short", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"},
		{"badvalue", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n"},
		// The mirror of (1,2) would be row 2 of a one-row matrix.
		{"symmetric-nonsquare", "%%MatrixMarket matrix coordinate real symmetric\n1 2 1\n1 2 1.0\n"},
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// TestReadMatrixMarketLimit: a caller's row bound refuses the size line
// with a *RowLimitError; at the bound, and with no bound, the reader
// accepts what ReadMatrixMarket accepts and fails as it fails.
func TestReadMatrixMarketLimit(t *testing.T) {
	const header = "%%MatrixMarket matrix coordinate real general\n"
	for _, tc := range []struct {
		name, in string
		limit    int
		want     *RowLimitError // nil: same outcome as ReadMatrixMarket
	}{
		{"over", header + "513 513 1\n1 1 1.0\n", 512, &RowLimitError{Rows: 513, Limit: 512}},
		{"declared-2^24", header + "16777216 16777216 1\n1 1 1\n", 1 << 20, &RowLimitError{Rows: 1 << 24, Limit: 1 << 20}},
		{"at", header + "512 512 1\n1 1 1.0\n", 512, nil},
		{"unbounded", header + "513 513 1\n1 1 1.0\n", 0, nil},
		{"beyond-reader-bound", header + "33554432 1 0\n", 1 << 20, nil},
		{"bad-size-line", header + "x 2 1\n", 1, nil},
	} {
		_, err := ReadMatrixMarketLimit(strings.NewReader(tc.in), tc.limit)
		if tc.want != nil {
			var rl *RowLimitError
			if !errors.As(err, &rl) || *rl != *tc.want {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
			}
			continue
		}
		_, ref := ReadMatrixMarket(strings.NewReader(tc.in))
		if fmt.Sprint(err) != fmt.Sprint(ref) {
			t.Errorf("%s: err = %v, ReadMatrixMarket gives %v", tc.name, err, ref)
		}
	}
}

// TestReadMatrixMarketAllocatesPerMatrix: the reader's allocations do not
// grow with the entry count (lines are split in place and parsed without
// string copies).
func TestReadMatrixMarketAllocatesPerMatrix(t *testing.T) {
	tridiagonal := func(n int) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, 3*n-2)
		for i := n; i >= 1; i-- { // rows last to first, each row's columns descending
			for j := min(i+1, n); j >= max(i-1, 1); j-- {
				fmt.Fprintf(&b, "%d %d %.17g\n", i, j, 1/float64(i+j))
			}
		}
		return b.String()
	}
	// The minimum over runs: the runtime adds stray allocations to some
	// runs (more often under -race), never fewer.
	allocs := func(payload string) float64 {
		best := math.Inf(1)
		for range 10 {
			best = min(best, testing.AllocsPerRun(1, func() {
				if _, err := ReadMatrixMarket(strings.NewReader(payload)); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return best
	}
	if small, large := allocs(tridiagonal(100)), allocs(tridiagonal(1000)); large > small {
		t.Errorf("%v allocations for 298 entries, %v for 2998", small, large)
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 20, 0.2)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NNZ() != m.NNZ() {
		t.Fatalf("round-trip NNZ %d -> %d", m.NNZ(), m2.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			if m2.At(i, j) != m.Val[p] {
				t.Fatalf("round-trip mismatch at (%d,%d): %g vs %g", i, j, m.Val[p], m2.At(i, j))
			}
		}
	}
}

func TestSpy(t *testing.T) {
	m := small4(t)
	var buf bytes.Buffer
	if err := Spy(&buf, m, 4, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "+----+") {
		t.Errorf("unexpected spy frame:\n%s", out)
	}
	// Tridiagonal: corner cells (0,3) and (3,0) must be blank.
	lines := strings.Split(out, "\n")
	if lines[1][4] != ' ' {
		t.Errorf("cell (0,3) should be blank in:\n%s", out)
	}
	if lines[4][1] != ' ' {
		t.Errorf("cell (3,0) should be blank in:\n%s", out)
	}
	if err := Spy(&buf, m, 0, 4); err == nil {
		t.Error("expected error for zero width")
	}
}

func TestSpyPGM(t *testing.T) {
	m := small4(t)
	var buf bytes.Buffer
	if err := SpyPGM(&buf, m, 4, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n4 4\n255\n")) {
		t.Fatalf("bad PGM header: %q", out[:12])
	}
	pix := out[len("P5\n4 4\n255\n"):]
	if len(pix) != 16 {
		t.Fatalf("pixel payload %d bytes, want 16", len(pix))
	}
	// Tridiagonal: corner (0,3) white, diagonal dark.
	if pix[3] != 255 {
		t.Errorf("corner should be background, got %d", pix[3])
	}
	if pix[0] == 255 {
		t.Error("diagonal cell should be shaded")
	}
	if err := SpyPGM(&buf, m, 0, 1); err == nil {
		t.Error("expected grid validation error")
	}
}

// uploadShaped is an n×n operator with the shape of the service's upload
// workload: a diagonal and couplings at offsets ±1, ±2 and ±61, off
// diagonal values in (-1, -0.1] and a dominant diagonal (34,872 entries at
// n = 5000).
func uploadShaped(n int) *CSR {
	rng := rand.New(rand.NewSource(5000))
	c := NewCOO(n, n)
	for i := range n {
		row := 0.0
		for _, d := range []int{-61, -2, -1, 1, 2, 61} {
			if j := i + d; j >= 0 && j < n {
				v := -0.1 - 0.9*rng.Float64()
				c.Add(i, j, v)
				row -= v
			}
		}
		c.Add(i, i, row*(2.5+rng.Float64()))
	}
	return c.ToCSR()
}

// matrixMarketDigits renders m as WriteMatrixMarket does, with each value
// rounded to the given number of significant digits.
func matrixMarketDigits(m *CSR, digits int) string {
	buf := fmt.Appendf(nil, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", m.Rows, m.Cols, m.NNZ())
	for i := range m.Rows {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			buf = fmt.Appendf(buf, "%d %d ", i+1, m.ColIdx[p]+1)
			buf = strconv.AppendFloat(buf, m.Val[p], 'g', digits, 64)
			buf = append(buf, '\n')
		}
	}
	return string(buf)
}

// entryTokens returns the index and value tokens of a Matrix Market text's
// entry lines.
func entryTokens(t *testing.T, text string) (indices, values []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(text), "\n")[2:]
	for _, line := range lines {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("entry line %q", line)
		}
		indices, values = append(indices, f[0], f[1]), append(values, f[2])
	}
	return indices, values
}

// TestMatrixMarketScanMatchesStrconv pins the reader's inline conversions
// to strconv. Every index and value token of an upload-shaped payload (12
// significant digits) must convert without strconv, giving strconv's bits;
// WriteMatrixMarket's 17-significant-digit values, whose significands
// exceed 2^53, must go to strconv; and at every edge of the fast path a
// token either goes to strconv or converts to strconv's bits.
func TestMatrixMarketScanMatchesStrconv(t *testing.T) {
	checkIndex := func(tok string, wantFast bool) {
		t.Helper()
		x, n, ok := scanIndex([]byte(tok))
		fast := ok && n == len(tok)
		if fast != wantFast {
			t.Errorf("index %q: fast path %v, want %v", tok, fast, wantFast)
		}
		if want, err := strconv.Atoi(tok); fast && (err != nil || x != want) {
			t.Errorf("index %q: scanned %d, strconv.Atoi gives %d, %v", tok, x, want, err)
		}
	}
	checkValue := func(tok string, wantFast bool) {
		t.Helper()
		v, n, ok := scanValue([]byte(tok))
		fast := ok && n == len(tok)
		if fast != wantFast {
			t.Errorf("value %q: fast path %v, want %v", tok, fast, wantFast)
		}
		if want, err := strconv.ParseFloat(tok, 64); fast && (err != nil || math.Float64bits(v) != math.Float64bits(want)) {
			t.Errorf("value %q: scanned %v (%#x), strconv.ParseFloat gives %v (%#x), %v",
				tok, v, math.Float64bits(v), want, math.Float64bits(want), err)
		}
	}

	m := uploadShaped(5000)
	indices, values := entryTokens(t, matrixMarketDigits(m, 12))
	if len(values) != 34872 {
		t.Fatalf("upload-shaped payload has %d entries, want 34872", len(values))
	}
	for _, tok := range indices {
		checkIndex(tok, true)
	}
	for _, tok := range values {
		checkValue(tok, true)
	}

	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	_, values = entryTokens(t, buf.String())
	full := 0
	for _, tok := range values {
		// %.17g drops trailing zeros, so a value may print shorter; those
		// may take either path.
		if digits := strings.TrimLeft(strings.NewReplacer("-", "", ".", "").Replace(tok), "0"); len(digits) == 17 {
			checkValue(tok, false)
			full++
		}
	}
	if full < len(values)*9/10 {
		t.Fatalf("only %d of %d written values have 17 significant digits", full, len(values))
	}

	for _, tc := range []struct {
		tok  string
		fast bool
	}{
		{"1", true}, {"000000000000000001", true}, {"999999999999999999", true},
		{"0000000000000000001", false}, {"1234567890123456789", false},
		{"99999999999999999999", false}, {"-1", false}, {"+1", false},
		{"1_0", false}, {"0x10", false}, {"", false},
	} {
		checkIndex(tc.tok, tc.fast)
	}
	for _, tc := range []struct {
		tok  string
		fast bool
	}{
		{"-0", true}, {"-0.0", true}, {"0e5", true}, {"-0e-3", true},
		{"0.123456789012345", true}, {"0.1234567890123456", true},
		{"9007199254740991", true}, {"-9007199254740991e-16", true},
		{"9007199254740992", false}, {"0.9007199254740993", false},
		{"9007199254740995e-16", false}, {"0.20932057595923914", false},
		{"1234567890123456789e-19", false}, {"12345678901234567890e-20", false},
		{"1e22", true}, {"9e22", true}, {"1e-22", true}, {"4.5e-21", true},
		{"1E+22", true}, {"1e0022", true}, {"0.1e23", true}, {"10e-23", false},
		{"1e23", false}, {"3e23", false}, {"1e-23", false}, {"1e00022", false},
		{"000.5", true}, {"0.0001", true}, {".5", false}, {"5.", false},
		{"+1.5", false}, {"-.5", false}, {"1e", false}, {"1e+", false},
		{"0x1p-2", false}, {"1_0", false}, {"Inf", false}, {"nan", false},
		{"-", false}, {"", false},
	} {
		checkValue(tc.tok, tc.fast)
	}
}

// BenchmarkReadMatrixMarket reads an upload-shaped payload (12 significant
// digits, converted inline) and the same operator as WriteMatrixMarket
// writes it (17 significant digits, values converted by strconv).
func BenchmarkReadMatrixMarket(b *testing.B) {
	m := uploadShaped(5000)
	var full bytes.Buffer
	if err := WriteMatrixMarket(&full, m); err != nil {
		b.Fatal(err)
	}
	for _, p := range []struct{ name, text string }{
		{"upload-12g", matrixMarketDigits(m, 12)},
		{"write-17g", full.String()},
	} {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(p.text)))
			for range b.N {
				if _, err := ReadMatrixMarket(strings.NewReader(p.text)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/entry")
		})
	}
}
