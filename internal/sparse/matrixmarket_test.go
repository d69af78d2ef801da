package sparse

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
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
