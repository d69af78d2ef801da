package sparse

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// corpusMatrix renders a small matrix to Matrix Market text for the seed
// corpus (generated here rather than committed as testdata so the corpus
// always matches the writer).
func corpusMatrix() string {
	c := NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(i, i-1, -1)
			c.Add(i-1, i, -1)
		}
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, c.ToCSR()); err != nil {
		panic(err)
	}
	return buf.String()
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add(corpusMatrix())
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 -1e-3\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n% comment\n\n3 3 2\n2 1 1.0\n3 3 2.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	// Hostile shapes the parser must reject without allocating for them.
	f.Add("%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 -5\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("")
	f.Add("%%MatrixMarket")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 nan\n")

	f.Fuzz(func(t *testing.T, input string) {
		a, err := ReadMatrixMarket(strings.NewReader(input))
		if err != nil {
			return
		}
		// On success the CSR invariants must hold: otherwise downstream
		// code (partitioning, kernels) indexes out of range.
		if a.Rows <= 0 || a.Cols <= 0 || a.Rows > maxMMDim || a.Cols > maxMMDim {
			t.Fatalf("accepted matrix with dimensions %dx%d", a.Rows, a.Cols)
		}
		if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.Val) {
			t.Fatalf("broken row pointers: len=%d rows=%d last=%d nnz=%d",
				len(a.RowPtr), a.Rows, a.RowPtr[a.Rows], len(a.Val))
		}
		if len(a.ColIdx) != len(a.Val) {
			t.Fatalf("colidx/val length mismatch: %d vs %d", len(a.ColIdx), len(a.Val))
		}
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i] > a.RowPtr[i+1] {
				t.Fatalf("row %d: non-monotone row pointers", i)
			}
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				if a.ColIdx[p] < 0 || a.ColIdx[p] >= a.Cols {
					t.Fatalf("row %d: column %d out of range [0,%d)", i, a.ColIdx[p], a.Cols)
				}
			}
		}
		// A parsed matrix must round-trip through the writer.
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatalf("write-back of accepted matrix failed: %v", err)
		}
		if _, err := ReadMatrixMarket(&buf); err != nil {
			t.Fatalf("round trip of accepted matrix failed: %v", err)
		}
	})
}

func TestReadMatrixMarketRejectsHostileSizeLines(t *testing.T) {
	for _, tc := range []struct{ name, input string }{
		{"huge-dims", "%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 0\n"},
		{"huge-cols", "%%MatrixMarket matrix coordinate real general\n2 999999999 0\n"},
		{"negative-nnz", "%%MatrixMarket matrix coordinate real general\n2 2 -5\n"},
		// The declared count only sizes a capped preallocation.
		{"huge-nnz-none-follow", "%%MatrixMarket matrix coordinate real general\n2 2 2000000000\n"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadMatrixMarket(strings.NewReader(tc.input))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Errorf("%s: allocated %d MiB before rejecting", tc.name, grew>>20)
		}
	}
	// The bound itself is generous: a paper-scale matrix passes.
	ok := "%%MatrixMarket matrix coordinate real general\n20000 20000 1\n1 1 1.0\n"
	if _, err := ReadMatrixMarket(strings.NewReader(ok)); err != nil {
		t.Fatalf("paper-scale matrix rejected: %v", err)
	}
}

// FuzzReadMatrixMarketMatchesReference checks the reader against the
// COO-based reference it replaced: the same inputs must fail with the same
// error text, and accepted inputs must give the CSR bits that referenceCSR
// assembles from the reference's entries, repeats of a position summed in
// file order by both. The reader assembles through COO.ToCSR and the
// reference through a global stable sort, so this checks ToCSR as well.
func FuzzReadMatrixMarketMatchesReference(f *testing.F) {
	f.Add(corpusMatrix())
	f.Add("%%MatrixMarket matrix coordinate real general\n3 3 5\n3 1 1.5\n1 3 -2\n1 1 4\n3 1 0.25\n2 2 1e-300\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n% mirrored pair\n3 3 4\n2 1 -0.75\n1 2 -0.1\n1 1 2\n3 3 3\n")
	f.Add("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 3\n3 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 1 7\n1 1 -7\n2 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1\t1\v3.5 extra\r\n2 2\f-1e-3\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1\u00a01 3.5\n2\u20032 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\u00a0x\n2 2 \xff\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 nan\n1 1 inf\n2 2 -inf\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 -5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n1 2 1\n1 2 1.0\n")
	f.Add("")
	// The edges of the reader's inline conversion (parseEntry): values one
	// per position of a 5×5 matrix, and whole entry lines of a 3×3 one.
	values := func(vals ...string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n5 5 %d\n", len(vals))
		for k, v := range vals {
			fmt.Fprintf(&b, "%d %d %s\n", k/5+1, k%5+1, v)
		}
		return b.String()
	}
	lines := func(entries ...string) string {
		return fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n3 3 %d\n%s\n", len(entries), strings.Join(entries, "\n"))
	}
	// Signed zeros (dropped by assembly, but they must parse alike).
	f.Add(values("-0", "-0.0", "0e5", "-0e-3", "1"))
	// 15 to 20 significant digits, and significands about 2^53.
	f.Add(values("0.123456789012345", "-0.1234567890123456", "0.20932057595923914", "-0.88101817609002486",
		"1234567890123456789e-19", "12345678901234567890e-20", "9007199254740991", "9007199254740992",
		"9007199254740993", "0.9007199254740993", "-9007199254740995e-16", "9007199254740993e-16"))
	// Exponents ±22 and ±23.
	f.Add(values("1e22", "-9e-22", "4.5E+21", "1e0022", "0.1e23", "3e23", "1e-23", "-1e+23", "10e-23",
		"1e00022", "123456789e-22"))
	// Leading zeros, and shapes only strconv accepts.
	f.Add(values("000.5", "0.0001", ".5", "5.", "+1.5", "-.5", "0x1p-2", "Inf", "nan", "-inf"))
	f.Add(values("1", "1_0"))
	f.Add(values("1", "1.5e"))
	// 18- and 19-digit indices, accepted, out of range and overflowing.
	f.Add(lines("000000000000000001 000000000000000002 1.5", "0000000000000000003 0000000000000000001 2.5"))
	f.Add(lines("123456789012345678 1 1"))
	f.Add(lines("1 1234567890123456789 1"))
	f.Add(lines("99999999999999999999 1 1"))
	f.Add(lines("1_0 1 1"))
	// Tabs, \v, \f and \r around fields, and fourth fields.
	f.Add(lines("1\t1\v2.5\r4th", "\v2\f2\t-1e-3 extra", "3\r3 \t 7\f\v8 9"))
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n000000000000000001\t2 junk\n2\r1\n")

	f.Fuzz(func(t *testing.T, input string) {
		got, err := ReadMatrixMarket(strings.NewReader(input))
		coo, refErr := readMatrixMarketReference(strings.NewReader(input))
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("error %v, reference error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if msg := csrBitsDiffer(got, referenceCSR(coo)); msg != "" {
			t.Fatal(msg)
		}
	})
}

// csrBitsDiffer describes the first difference between two CSR matrices,
// comparing values by their bits; "" when they are identical.
func csrBitsDiffer(a, b *CSR) string {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Sprintf("dimensions %dx%d, reference %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if !slices.Equal(a.RowPtr, b.RowPtr) {
		return fmt.Sprintf("row pointers %v, reference %v", a.RowPtr, b.RowPtr)
	}
	if !slices.Equal(a.ColIdx, b.ColIdx) {
		return fmt.Sprintf("columns %v, reference %v", a.ColIdx, b.ColIdx)
	}
	if len(a.Val) != len(b.Val) {
		return fmt.Sprintf("%d values, reference %d", len(a.Val), len(b.Val))
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return fmt.Sprintf("value %d is %v, reference %v", k, a.Val[k], b.Val[k])
		}
	}
	return ""
}
