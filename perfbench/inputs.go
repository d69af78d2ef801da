package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// matrix is the benchmark's own compressed-row copy of an operator, used to
// recompute residuals independently of the program under test.
type matrix struct {
	n      int
	rowPtr []int
	col    []int
	val    []float64
}

// mulVec returns A·x.
func (m *matrix) mulVec(x []float64) []float64 {
	y := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		s := 0.0
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s += m.val[p] * x[m.col[p]]
		}
		y[i] = s
	}
	return y
}

// residual returns ‖b − A·x‖₂ and a rounding allowance for it: the bound
// on the floating-point error of evaluating b − A·x, so a check can accept
// a recomputed residual that exceeds the tolerance only by that error.
func (m *matrix) residual(b, x []float64) (res, allowance float64) {
	var sumSq, magSq float64
	maxRow := 0
	for i := 0; i < m.n; i++ {
		s, mag := b[i], math.Abs(b[i])
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			s -= m.val[p] * x[m.col[p]]
			mag += math.Abs(m.val[p] * x[m.col[p]])
		}
		sumSq += s * s
		magSq += mag * mag
		if r := m.rowPtr[i+1] - m.rowPtr[i]; r > maxRow {
			maxRow = r
		}
	}
	const eps = 0x1p-52
	return math.Sqrt(sumSq), float64(maxRow+2) * eps * math.Sqrt(magSq)
}

// ones returns the all-ones vector of length n: the exact solution of the
// default right-hand side b = A·1 that named and uploaded solves use.
func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// trefethen builds the n×n Trefethen matrix from its definition (diagonal
// p_i, the i-th prime; 1 wherever |i−j| is a power of two), independently of
// the program's generator, so solve-large answers are checked against an
// operator the program did not produce.
func trefethen(n int) *matrix {
	primes := make([]int, 0, n)
	for c := 2; len(primes) < n; c++ {
		prime := true
		for _, p := range primes {
			if p*p > c {
				break
			}
			if c%p == 0 {
				prime = false
				break
			}
		}
		if prime {
			primes = append(primes, c)
		}
	}
	m := &matrix{n: n, rowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		for d := 1; d < n; d *= 2 {
			if j := i - d; j >= 0 {
				m.col, m.val = append(m.col, j), append(m.val, 1)
			}
		}
		m.col, m.val = append(m.col, i), append(m.val, float64(primes[i]))
		for d := 1; d < n; d *= 2 {
			if j := i + d; j < n {
				m.col, m.val = append(m.col, j), append(m.val, 1)
			}
		}
		m.rowPtr[i+1] = len(m.col)
	}
	// Below-diagonal entries were appended nearest-first; sort each row's
	// lower part ascending so rows read in column order.
	for i := 0; i < n; i++ {
		lo := m.rowPtr[i]
		k := lo
		for k < m.rowPtr[i+1] && m.col[k] < i {
			k++
		}
		for a, b := lo, k-1; a < b; a, b = a+1, b-1 {
			m.col[a], m.col[b] = m.col[b], m.col[a]
			m.val[a], m.val[b] = m.val[b], m.val[a]
		}
	}
	return m
}

// Upload operators: n×n, symmetric, strictly diagonally dominant with a
// positive diagonal and negative couplings (hence SPD M-matrices), on one
// fixed sparsity pattern. Values are drawn from the seed, so no two
// operators share coefficients and the stencil detector finds no
// constant-coefficient structure: the kernel resolves to packed CSR.
const (
	uploadN         = 5000
	uploadOperators = 16
	uploadDigits    = 12 // significant digits of each Matrix Market value
)

// uploadOffsets are the off-diagonal offsets of the upload pattern (both
// signs are stored): near and far couplings, so blocks of every size have
// off-block entries. Offset 2 makes the coupling graph non-bipartite, so
// the Jacobi matrix has no ±ρ eigenvalue pair.
var uploadOffsets = []int{1, 2, 61}

// Row dominance (diagonal over off-diagonal mass) is drawn from
// [bulkDominance, bulkDominance+1), except in a window of hotRows
// consecutive rows, at a seeded position, where it is only hotDominance.
// The window isolates the top eigenvalue of the Jacobi iteration matrix, so
// the service's spectral pre-flight (power iterations to a 1e-10 relative
// change) converges in about a hundred multiplies for every seed. Without
// it the top of the spectrum is clustered and the pre-flight runs
// thousands of multiplies per operator (0.1–2 s at n = 5000), varying with
// the seed, and one service's set-up would take many seconds. So the
// workload's setup_s leaves that cost out; the traced run times it on
// clusteredOperator instead, and README.md records it as a finding.
const (
	bulkDominance = 2.5
	hotRows       = 3
	hotDominance  = 1.25
)

// upload is one generated operator: its Matrix Market text exactly as it is
// sent, and the benchmark's own copy of the values that text encodes.
type upload struct {
	text string
	a    *matrix
}

// uploadOperator generates operator k of the seed's set.
func uploadOperator(seed int64, k int) upload { return generateUpload(seed, k, true) }

// clusteredOperator is operator 0 of the seed's set without the isolating
// window: the same pattern and value distribution, with the clustered top
// of the spectrum an arbitrary upload of this shape has.
func clusteredOperator(seed int64) upload { return generateUpload(seed, 0, false) }

func generateUpload(seed int64, k int, window bool) upload {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(k)*7919 + 17))
	n := uploadN
	hot := rng.Intn(n - hotRows)
	// off[i][o] is the coupling between row i and row i+offset[o].
	off := make([][]float64, n)
	for i := range off {
		off[i] = make([]float64, len(uploadOffsets))
		for o, d := range uploadOffsets {
			if i+d < n {
				off[i][o] = roundTrip(-0.1 - 0.9*rng.Float64())
			}
		}
	}
	m := &matrix{n: n, rowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		var rowAbs float64
		type entry struct {
			j int
			v float64
		}
		var lower, upper []entry
		for o := len(uploadOffsets) - 1; o >= 0; o-- {
			if j := i - uploadOffsets[o]; j >= 0 {
				lower = append(lower, entry{j, off[j][o]})
				rowAbs += math.Abs(off[j][o])
			}
		}
		for o, d := range uploadOffsets {
			if j := i + d; j < n {
				upper = append(upper, entry{j, off[i][o]})
				rowAbs += math.Abs(off[i][o])
			}
		}
		f := bulkDominance + rng.Float64()
		if window && i >= hot && i < hot+hotRows {
			f = hotDominance
		}
		diag := roundTrip(rowAbs * f)
		for _, e := range lower {
			m.col, m.val = append(m.col, e.j), append(m.val, e.v)
		}
		m.col, m.val = append(m.col, i), append(m.val, diag)
		for _, e := range upper {
			m.col, m.val = append(m.col, e.j), append(m.val, e.v)
		}
		m.rowPtr[i+1] = len(m.col)
	}
	return upload{text: matrixMarket(m), a: m}
}

// roundTrip rounds v to the decimal form the Matrix Market text carries, so
// the benchmark's copy holds exactly the values the program parses.
func roundTrip(v float64) float64 {
	r, err := strconv.ParseFloat(strconv.FormatFloat(v, 'g', uploadDigits, 64), 64)
	if err != nil {
		panic(err) // FormatFloat output always parses
	}
	return r
}

// matrixMarket renders m as "coordinate real general" Matrix Market text.
func matrixMarket(m *matrix) string {
	buf := make([]byte, 0, 28*len(m.val)+64)
	buf = append(buf, "%%MatrixMarket matrix coordinate real general\n"...)
	buf = fmt.Appendf(buf, "%d %d %d\n", m.n, m.n, len(m.val))
	for i := 0; i < m.n; i++ {
		for p := m.rowPtr[i]; p < m.rowPtr[i+1]; p++ {
			buf = strconv.AppendInt(buf, int64(i+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(m.col[p]+1), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, m.val[p], 'g', uploadDigits, 64)
			buf = append(buf, '\n')
		}
	}
	return string(buf)
}

// Session right-hand sides drift smoothly: step k of the sequence is
// b_k[i] = 1 + ½·sin(2π(f·i/n + k/period) + φ), with frequency f and phase φ
// drawn from the seed. The sequence is periodic in k, so a ring of period
// bodies allocated before the window serves any number of steps, and
// consecutive steps differ by a small rotation (warm starts pay off).
const sessionPeriod = 48

// sessionRHS returns step k of the seed's drifting sequence for dimension n.
func sessionRHS(seed int64, n, k int) []float64 {
	rng := rand.New(rand.NewSource(seed*7_368_787 + 101))
	f := 2 + 3*rng.Float64()
	phi := 2 * math.Pi * rng.Float64()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + 0.5*math.Sin(2*math.Pi*(f*float64(i)/float64(n)+float64(k)/sessionPeriod)+phi)
	}
	return b
}

// mustJSON marshals a request body built from benchmark-owned values.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings, numbers and slices are marshaled
	}
	return b
}
