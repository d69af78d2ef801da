package mats

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// TestMatrix couples a generated matrix with its paper identity.
type TestMatrix struct {
	Name        string
	Description string
	A           *sparse.CSR
}

// Names lists the seven paper matrices in Table 1 order.
var Names = []string{
	"Chem97ZtZ", "fv1", "fv2", "fv3", "s1rmt3m1", "Trefethen_2000", "Trefethen_20000",
}

// Generate returns the named test matrix. Beyond the paper set, the
// parametric name "poisson2d_W" (odd W ≥ 5) generates the five-point
// Poisson operator on the W×W grid — the operator family the multigrid
// route admits. Unknown names return an error listing the available set.
func Generate(name string) (TestMatrix, error) {
	return GenerateLimit(name, 0)
}

// GenerateLimit is Generate with a caller's row bound: a name whose matrix
// has more than maxRows rows fails with a *sparse.RowLimitError before
// anything is built (a poisson2d_W whose W·W overflows int reports
// math.MaxInt rows). maxRows <= 0 leaves the size unbounded.
func GenerateLimit(name string, maxRows int) (TestMatrix, error) {
	g, ok := paper[name]
	if !ok {
		w, ok := poissonName(name)
		if !ok {
			return TestMatrix{}, fmt.Errorf("mats: unknown matrix %q (have %v and poisson2d_W for odd W ≥ 5)", name, Names)
		}
		g.desc, g.rows = "five-point 2-D Poisson (generated)", math.MaxInt
		if w <= math.MaxInt/w {
			g.rows = w * w
		}
		g.build = func() *sparse.CSR { return Poisson2D(w, w) }
	}
	if maxRows > 0 && g.rows > maxRows {
		return TestMatrix{}, &sparse.RowLimitError{Rows: g.rows, Limit: maxRows}
	}
	return TestMatrix{name, g.desc, g.build()}, nil
}

// generator describes a named matrix before it is built.
type generator struct {
	desc  string
	rows  int
	build func() *sparse.CSR
}

// paper holds the generators of Names.
var paper = map[string]generator{
	"Chem97ZtZ":       {"statistical problem (analog)", 2541, func() *sparse.CSR { return Chem97ZtZ(2541) }},
	"fv1":             {"2D/3D problem (analog)", 98 * 98, func() *sparse.CSR { return FVTiled(98, 98, 1.368) }},
	"fv2":             {"2D/3D problem (analog)", 99 * 99, func() *sparse.CSR { return FVTiled(99, 99, 1.368) }},
	"fv3":             {"2D/3D problem (analog)", 99 * 99, func() *sparse.CSR { return FVTiled(99, 99, 0.0056) }},
	"s1rmt3m1":        {"structural problem (analog)", 5489, func() *sparse.CSR { return S1RMT3M1(5489) }},
	"Trefethen_2000":  {"combinatorial problem (exact)", 2000, func() *sparse.CSR { return Trefethen(2000) }},
	"Trefethen_20000": {"combinatorial problem (exact)", 20000, func() *sparse.CSR { return Trefethen(20000) }},
}

// poissonName parses the parametric "poisson2d_W" name.
func poissonName(name string) (int, bool) {
	var w int
	if _, err := fmt.Sscanf(name, "poisson2d_%d", &w); err != nil {
		return 0, false
	}
	if fmt.Sprintf("poisson2d_%d", w) != name || w < 5 || w%2 == 0 {
		return 0, false
	}
	return w, true
}

// MustGenerate is Generate for known-good names; it panics on error.
func MustGenerate(name string) TestMatrix {
	m, err := Generate(name)
	if err != nil {
		panic(err)
	}
	return m
}

// All generates every paper matrix in Table 1 order.
func All() []TestMatrix {
	out := make([]TestMatrix, 0, len(Names))
	for _, n := range Names {
		out = append(out, MustGenerate(n))
	}
	return out
}

// Trefethen builds the n×n Trefethen prime matrix exactly as defined for
// the UFMC entries Trefethen_2000 / Trefethen_20000:
//
//	A[i][i] = p_i (the i-th prime, 1-based: 2, 3, 5, ...)
//	A[i][j] = 1   whenever |i−j| is a power of two (1, 2, 4, 8, ...).
//
// The matrix is symmetric positive definite.
func Trefethen(n int) *sparse.CSR {
	if n <= 0 {
		panic(fmt.Sprintf("mats: Trefethen(%d): n must be positive", n))
	}
	primes := firstPrimes(n)
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(primes[i]))
		for d := 1; i+d < n; d <<= 1 {
			c.AddSym(i, i+d, 1)
		}
	}
	return c.ToCSR()
}

// firstPrimes returns the first n primes via a sieve sized by the
// prime-counting estimate p_n < n(ln n + ln ln n) for n ≥ 6.
func firstPrimes(n int) []int {
	if n <= 0 {
		return nil
	}
	limit := 15
	if n >= 6 {
		f := float64(n)
		limit = int(f*(math.Log(f)+math.Log(math.Log(f)))) + 10
	}
	for {
		sieve := make([]bool, limit+1)
		var primes []int
		for p := 2; p <= limit; p++ {
			if sieve[p] {
				continue
			}
			primes = append(primes, p)
			if len(primes) == n {
				return primes
			}
			for q := p * p; q <= limit; q += p {
				sieve[q] = true
			}
		}
		limit *= 2 // estimate too tight (only possible for tiny n)
	}
}

// FV builds a 2-D nine-point finite-element-style stencil matrix on a
// w×h grid, the analog of the UFMC fv family:
//
//	a_ii = 8 + sigma, a_ij = −1 for the 8 grid neighbours of i.
//
// The diagonal shift sigma tunes the Jacobi iteration-matrix spectral
// radius: interior-symbol analysis gives ρ(B) ≈ 8λ₁/(8+sigma) with λ₁ the
// largest normalized adjacency eigenvalue (→1 for large grids). sigma=1.368
// yields ρ ≈ 0.854 (fv1/fv2); sigma=0.0056 yields ρ ≈ 0.999 (fv3). The
// matrix is strictly diagonally dominant for sigma > 0, hence SPD.
func FV(w, h int, sigma float64) *sparse.CSR {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("mats: FV(%d,%d): grid must be positive", w, h))
	}
	n := w * h
	c := sparse.NewCOO(n, n)
	idx := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := idx(x, y)
			c.Add(i, i, 8+sigma)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nx, ny := x+dx, y+dy
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					c.Add(i, idx(nx, ny), -1)
				}
			}
		}
	}
	return c.ToCSR()
}

// FVTiled is FV with the grid points renumbered tile by tile (16×8-point
// tiles, matching the paper's chaos-study block size of 128 rows per thread
// block). The UFMC fv matrices carry mesh orderings with strong locality —
// "almost all elements are gathered on the diagonal blocks" (paper §4.1) —
// which a plain row-major stencil numbering lacks: under row-major order a
// 128-row block spans barely more than one grid line and most stencil
// neighbours land outside the block. Tiling restores the property the
// paper's conclusions about fv1 depend on. The renumbering is a symmetric
// permutation, so spectrum, dominance and symmetry are unchanged.
func FVTiled(w, h int, sigma float64) *sparse.CSR {
	a := FV(w, h, sigma)
	perm := TilePermutation(w, h, 16, 8)
	p, err := sparse.PermuteSym(a, perm)
	if err != nil {
		panic(fmt.Sprintf("mats: FVTiled: %v", err)) // unreachable: perm is valid by construction
	}
	return p
}

// ScaleSym applies the symmetric diagonal scaling A′ = S·A·S with smoothly
// varying s_i = 1 + (smax−1)·(i/(n−1))². The normalized matrix
// D′^{-1/2}A′D′^{-1/2} is *identical* to that of A, so every quantity the
// relaxation methods depend on — ρ(B), ρ(|B|), cond(D⁻¹A), per-iteration
// convergence rates of Jacobi/Gauss-Seidel/SOR/async-(k) — is unchanged,
// while cond(A′) grows by ≈ smax². The UFMC fv matrices combine a modest
// cond(D⁻¹A) (12.76) with a large cond(A) (≈1e5, Table 1); applying
// ScaleSym to the fv analogs reproduces that combination. The default
// generators stay unscaled because bad scaling also slows the
// *unpreconditioned* CG baseline of Figure 9, which the paper's results
// show unaffected — i.e. the paper's CG sees the well-scaled problem.
// EXPERIMENTS.md records the resulting cond(A) deviation in Table 1.
func ScaleSym(a *sparse.CSR, smax float64) *sparse.CSR {
	if smax <= 0 {
		panic(fmt.Sprintf("mats: ScaleSym smax=%g must be positive", smax))
	}
	n := a.Rows
	s := make([]float64, n)
	for i := range s {
		t := float64(i) / float64(n-1)
		s[i] = 1 + (smax-1)*t*t
	}
	out := a.Clone()
	for i := 0; i < n; i++ {
		for p := out.RowPtr[i]; p < out.RowPtr[i+1]; p++ {
			out.Val[p] *= s[i] * s[out.ColIdx[p]]
		}
	}
	return out
}

// TilePermutation returns the permutation that renumbers the points of a
// w×h grid tile by tile: perm[rowMajorIndex] = tileOrderIndex. Tiles are
// tileW×tileH and traversed left-to-right, top-to-bottom; within a tile,
// points are row-major. Boundary tiles may be smaller.
func TilePermutation(w, h, tileW, tileH int) []int {
	if w <= 0 || h <= 0 || tileW <= 0 || tileH <= 0 {
		panic(fmt.Sprintf("mats: TilePermutation(%d,%d,%d,%d): all arguments must be positive", w, h, tileW, tileH))
	}
	perm := make([]int, w*h)
	next := 0
	for ty := 0; ty < h; ty += tileH {
		for tx := 0; tx < w; tx += tileW {
			for y := ty; y < ty+tileH && y < h; y++ {
				for x := tx; x < tx+tileW && x < w; x++ {
					perm[y*w+x] = next
					next++
				}
			}
		}
	}
	return perm
}

// Chem97ZtZ builds the statistics normal-matrix analog: a matrix whose
// off-diagonal entries all lie at distance ≥ n/3 from the diagonal. Rows
// are grouped into triples {i, i+n/3, i+2n/3} with normalized coupling
// c = 0.3945, so the Jacobi iteration matrix has eigenvalues {−2c, c, c}
// per triple and ρ(B) = 2c ≈ 0.789, matching the paper's 0.7889. The
// diagonal d_i sweeps [1, 450] so cond(A) lands near the paper's 1.3e3.
//
// Because every coupling is long-range, all block-local submatrices for the
// paper's block sizes (128, 448) are *diagonal*: the property that makes
// async-(k) behave like plain Jacobi on this system (paper §4.3).
func Chem97ZtZ(n int) *sparse.CSR {
	if n < 3 {
		panic(fmt.Sprintf("mats: Chem97ZtZ(%d): n must be at least 3", n))
	}
	const coupling = 0.3945
	third := n / 3
	c := sparse.NewCOO(n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		// Smooth deterministic spread of the diagonal over [1, 450].
		t := float64(i) / float64(n-1)
		diag[i] = 1 + 449*t*t
		c.Add(i, i, diag[i])
	}
	for i := 0; i < third; i++ {
		j, k := i+third, i+2*third
		c.AddSym(i, j, coupling*math.Sqrt(diag[i]*diag[j]))
		c.AddSym(i, k, coupling*math.Sqrt(diag[i]*diag[k]))
		c.AddSym(j, k, coupling*math.Sqrt(diag[j]*diag[k]))
	}
	return c.ToCSR()
}

// S1RMT3M1 builds the structural-problem analog: the 1-D 8th-order
// difference (Toeplitz) operator with stencil given by the alternating
// binomial coefficients of (1−z)⁸,
//
//	[1 −8 28 −56 70 −56 28 −8 1],
//
// plus a small diagonal shift. The operator symbol is (2−2cosθ)⁴ ≥ 0, so
// the matrix is SPD, while the Jacobi iteration matrix reaches
// ρ(B) = (256+α)/(70+α) − 1 ≈ 186/70 ≈ 2.657 — the paper's ρ ≈ 2.65 > 1
// case where Jacobi, Gauss-Seidel and block-asynchronous iteration all
// diverge (Figures 6e, 7e). The shift α = 1.16e−4 sets λ_min ≈ α so that
// cond(A) ≈ 256/α ≈ 2.2e6, the paper's value.
//
// The paper's s1rmt3m1 has ≈48 nonzeros/row; this analog has ≤9. The
// density difference does not affect any conclusion drawn from the matrix
// (all of which flow from ρ(B) > 1); see DESIGN.md §2.
func S1RMT3M1(n int) *sparse.CSR {
	if n < 9 {
		panic(fmt.Sprintf("mats: S1RMT3M1(%d): n must be at least 9", n))
	}
	const alpha = 1.16e-4
	stencil := []float64{70 + alpha, -56, 28, -8, 1} // offsets 0..4, symmetric
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, stencil[0])
		for d := 1; d <= 4; d++ {
			if i+d < n {
				c.AddSym(i, i+d, stencil[d])
			}
		}
	}
	return c.ToCSR()
}

// Poisson2D builds the standard five-point 2-D Poisson stencil on a w×h
// grid (diag 4, neighbours −1). Used by the examples; the classical model
// problem for relaxation methods.
func Poisson2D(w, h int) *sparse.CSR {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("mats: Poisson2D(%d,%d): grid must be positive", w, h))
	}
	n := w * h
	c := sparse.NewCOO(n, n)
	idx := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := idx(x, y)
			c.Add(i, i, 4)
			if x > 0 {
				c.Add(i, idx(x-1, y), -1)
			}
			if x < w-1 {
				c.Add(i, idx(x+1, y), -1)
			}
			if y > 0 {
				c.Add(i, idx(x, y-1), -1)
			}
			if y < h-1 {
				c.Add(i, idx(x, y+1), -1)
			}
		}
	}
	return c.ToCSR()
}

// DiagDominant builds an n×n strictly diagonally dominant SPD band matrix
// with the given half-bandwidth and dominance ratio r > 1 (|a_ii| equals r
// times the off-diagonal row sum). Useful for property tests that need a
// family of guaranteed-convergent systems.
func DiagDominant(n, halfBand int, r float64) *sparse.CSR {
	if n <= 0 || halfBand < 0 || r <= 1 {
		panic(fmt.Sprintf("mats: DiagDominant(%d,%d,%g): need n>0, halfBand≥0, r>1", n, halfBand, r))
	}
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		var off float64
		for d := 1; d <= halfBand; d++ {
			v := -1.0 / float64(d)
			if i+d < n {
				c.AddSym(i, i+d, v)
			}
			if i+d < n {
				off += -v
			}
			if i-d >= 0 {
				off += -v
			}
		}
		if off == 0 {
			off = 1
		}
		c.Add(i, i, r*off)
	}
	return c.ToCSR()
}
