package certify

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/sparse"
	"repro/internal/spectral"
	"repro/internal/vecmath"
)

// ErrDivergent is the sentinel wrapped by every enforcement path that
// refuses a solve on a Diverges verdict (core.Options.Certify, the
// service's "certify": "enforce" mode). The HTTP layer maps it to 422.
var ErrDivergent = errors.New("certify: matrix certified divergent under asynchronous relaxation")

// Class is the convergence class the certifier assigned, the first match
// in the order below (a strictly dominant M-matrix reports the dominance
// class — the stronger, cheaper guarantee).
type Class int

const (
	// ClassUnknown: no classification applies (non-finite entries,
	// invalid structure, empty system).
	ClassUnknown Class = iota
	// ClassZeroDiagonal: some a_ii is zero or structurally missing; the
	// Jacobi splitting does not exist and relaxation is undefined.
	ClassZeroDiagonal
	// ClassStrictDiagDominant: |a_ii| > Σ_{j≠i}|a_ij| in every row;
	// ‖B‖∞ < 1 guarantees every asynchronous schedule converges.
	ClassStrictDiagDominant
	// ClassIrreducibleDiagDominant: weak dominance in every row, strict in
	// at least one, strongly connected sparsity graph; ρ(|B|) < 1 by
	// Perron–Frobenius.
	ClassIrreducibleDiagDominant
	// ClassMMatrix: Z-pattern (positive diagonal, nonpositive
	// off-diagonals) with a proven ρ(B) = ρ(|B|) < 1 — a nonsingular
	// M-matrix, the class with explicit step-asynchronous rate bounds.
	ClassMMatrix
	// ClassSpectral: no structural guarantee; the verdict rests on the
	// bounded-work spectral estimates alone.
	ClassSpectral
)

var classNames = map[Class]string{
	ClassUnknown:                 "unknown",
	ClassZeroDiagonal:            "zero-diagonal",
	ClassStrictDiagDominant:      "strictly-diagonally-dominant",
	ClassIrreducibleDiagDominant: "irreducibly-diagonally-dominant",
	ClassMMatrix:                 "m-matrix",
	ClassSpectral:                "spectral",
}

// String implements fmt.Stringer.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// MarshalText serializes the class name (the JSON vocabulary).
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a class name.
func (c *Class) UnmarshalText(b []byte) error {
	for k, v := range classNames {
		if v == string(b) {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("certify: unknown class %q", b)
}

// Verdict is the certifier's decision about asynchronous relaxation of the
// system. Unknown is not a failure: it means no bounded-work proof either
// way, and admission proceeds without a guarantee.
type Verdict int

const (
	// VerdictUnknown: neither convergence nor divergence proven within the
	// work bound.
	VerdictUnknown Verdict = iota
	// VerdictConverges: every admissible asynchronous schedule converges
	// (analytic class or ρ(|B|) < 1).
	VerdictConverges
	// VerdictDiverges: the stationary iteration provably expands
	// (ρ(B) > 1, or the splitting does not exist); running it wastes the
	// full iteration cap.
	VerdictDiverges
)

var verdictNames = map[Verdict]string{
	VerdictUnknown:   "unknown",
	VerdictConverges: "converges",
	VerdictDiverges:  "diverges",
}

// String implements fmt.Stringer.
func (v Verdict) String() string {
	if s, ok := verdictNames[v]; ok {
		return s
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// MarshalText serializes the verdict name (the JSON vocabulary).
func (v Verdict) MarshalText() ([]byte, error) { return []byte(v.String()), nil }

// UnmarshalText parses a verdict name.
func (v *Verdict) UnmarshalText(b []byte) error {
	for k, s := range verdictNames {
		if s == string(b) {
			*v = k
			return nil
		}
	}
	return fmt.Errorf("certify: unknown verdict %q", b)
}

// Mode is an enforcement level: what a solving layer does with the
// certificate. The service's "certify" request field parses to one.
type Mode int

const (
	// ModeOff: do not certify.
	ModeOff Mode = iota
	// ModeWarn: certify and attach the certificate to the result, but
	// admit every verdict (a Diverges job runs to its iteration cap).
	ModeWarn
	// ModeEnforce: refuse Diverges-verdict jobs (or reroute them to a
	// fallback solver) instead of running them.
	ModeEnforce
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeWarn:
		return "warn"
	case ModeEnforce:
		return "enforce"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses a certify mode; the empty string is ModeOff.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return ModeOff, nil
	case "warn":
		return ModeWarn, nil
	case "enforce":
		return ModeEnforce, nil
	default:
		return ModeOff, fmt.Errorf("certify: unknown mode %q (want \"off\", \"warn\" or \"enforce\")", s)
	}
}

// maxPredicted caps PredictedIters when the contraction rate is too close
// to 1 to price (documented as "at least this many").
const maxPredicted = 1 << 30

// PredictedFactor is the documented slack of the iteration budget: on a
// Converges verdict, observed global iterations to TargetDigits orders of
// residual reduction stay within PredictedFactor × PredictedIters. The
// bound is enforced by the certifier property tests and gated in benchgate
// (see docs/CERTIFY.md); the slack absorbs block-local rounding, schedule
// staleness, and the gap between ‖·‖∞ rate bounds and observed residuals.
const PredictedFactor = 4

// Certificate is the certifier's signed-off output for one matrix: the
// class, the spectral evidence, the verdict, and — for a Converges
// verdict — the predicted iterations-to-tolerance from the rate bound.
// All float fields are finite (JSON-safe); 0 in RhoUpper means "no finite
// upper bound was established".
type Certificate struct {
	Class   Class   `json:"class"`
	Verdict Verdict `json:"verdict"`
	// RhoEstimate is the best point estimate of ρ(|B|), clamped into the
	// rigorous Collatz–Wielandt interval [RhoLower, RhoUpper].
	RhoEstimate float64 `json:"rho_estimate"`
	// RhoLower and RhoUpper are rigorous bounds on ρ(|B|) (Collatz–
	// Wielandt); RhoUpper is 0 when no finite upper bound was established.
	RhoLower float64 `json:"rho_lower"`
	RhoUpper float64 `json:"rho_upper,omitempty"`
	// RhoConverged reports whether the bounded-work power iteration met
	// its tolerance (false: RhoEstimate is best-effort).
	RhoConverged bool `json:"rho_converged"`
	// RhoJacobi is the ρ(B) estimate, populated only on the divergence-
	// analysis path (0 otherwise).
	RhoJacobi float64 `json:"rho_jacobi,omitempty"`
	// Dominance is min_i |a_ii| / Σ_{j≠i}|a_ij| (the strict-dominance
	// margin; > 1 iff strictly dominant), capped at 1e300 for rows with
	// empty off-diagonals.
	Dominance float64 `json:"dominance"`
	// PredictedIters prices a Converges verdict: global iterations for
	// TargetDigits orders of residual reduction at the certified rate,
	// ceil(digits·ln10 / −ln ρ). 0 unless Verdict is Converges.
	PredictedIters int `json:"predicted_iters,omitempty"`
	// TargetDigits echoes the reduction the prediction is priced for.
	TargetDigits float64 `json:"target_digits,omitempty"`
	// Reason is the one-line human-readable justification.
	Reason string `json:"reason"`
}

// String renders the certificate as one log line.
func (c Certificate) String() string {
	s := fmt.Sprintf("class=%s verdict=%s rho(|B|)=%.4f", c.Class, c.Verdict, c.RhoEstimate)
	if c.PredictedIters > 0 {
		s += fmt.Sprintf(" predicted_iters=%d", c.PredictedIters)
	}
	return s + " (" + c.Reason + ")"
}

// Options configures Certify. Zero values select the defaults; the zero
// Options is the configuration every cache-sharing layer should use so
// certificates are reproducible across nodes.
type Options struct {
	// Seed drives the seeded spectral estimators (default 1). The
	// nonnegative-matrix estimates start from the all-ones vector and do
	// not consume it.
	Seed int64
	// MaxPowerIters bounds the ρ(|B|) power iteration (default 2000);
	// admission latency is at most this many sparse multiplies.
	MaxPowerIters int
	// PowerTol is the power iteration's relative-change tolerance
	// (default 1e-6).
	PowerTol float64
	// BoundSweeps tightens the Collatz–Wielandt bounds (default 16).
	BoundSweeps int
	// TargetDigits prices PredictedIters: orders of magnitude of residual
	// reduction (default 6, the default-tolerance regime).
	TargetDigits float64
	// Margin is the relative safety band around ρ = 1 inside which a
	// point estimate is not trusted for a verdict (default 0.05).
	Margin float64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxPowerIters == 0 {
		o.MaxPowerIters = 2000
	}
	if o.PowerTol == 0 {
		o.PowerTol = 1e-6
	}
	if o.BoundSweeps == 0 {
		o.BoundSweeps = 16
	}
	if o.TargetDigits == 0 {
		o.TargetDigits = 6
	}
	if o.Margin == 0 {
		o.Margin = 0.05
	}
	return o
}

// Certify classifies A and produces its convergence certificate. It
// errors only on structurally unusable input (nil or non-square);
// everything else — including invalid CSR internals, non-finite entries
// and zero diagonals — is absorbed into the certificate so admission
// paths have exactly one decision to make: the Verdict. Work is bounded
// by Options (no input can make certification hang), and the result is
// deterministic for a given (matrix, Options) pair.
func Certify(a *sparse.CSR, opt Options) (Certificate, error) {
	opt = opt.withDefaults()
	if a == nil {
		return Certificate{}, errors.New("certify: nil matrix")
	}
	if a.Rows != a.Cols {
		return Certificate{}, fmt.Errorf("certify: matrix must be square, have %dx%d", a.Rows, a.Cols)
	}
	if a.Rows == 0 {
		return Certificate{
			Class: ClassUnknown, Verdict: VerdictConverges,
			TargetDigits: opt.TargetDigits,
			Reason:       "empty system: nothing to iterate",
		}, nil
	}
	if err := a.Validate(); err != nil {
		return Certificate{
			Class: ClassUnknown, Verdict: VerdictUnknown,
			Reason: fmt.Sprintf("invalid CSR structure: %v", err),
		}, nil
	}
	for i, v := range a.Diagonal() {
		if v == 0 {
			return Certificate{
				Class: ClassZeroDiagonal, Verdict: VerdictDiverges,
				Reason: fmt.Sprintf("zero or missing diagonal at row %d: Jacobi splitting undefined", i),
			}, nil
		}
	}
	for _, v := range a.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Certificate{
				Class: ClassUnknown, Verdict: VerdictUnknown,
				Reason: "non-finite matrix entry",
			}, nil
		}
	}

	cert := Certificate{TargetDigits: opt.TargetDigits}

	dom := a.DiagonalDominance()
	minDom, strictRows := math.Inf(1), 0
	for _, d := range dom {
		if d < minDom {
			minDom = d
		}
		if d > 1 {
			strictRows++
		}
	}
	cert.Dominance = math.Min(minDom, 1e300)

	// Spectral evidence on |B|: rigorous Collatz–Wielandt bounds plus the
	// bounded-work power estimate (ErrNoConvergence only flags an
	// unconverged estimate; the best-so-far radius is still returned).
	b, err := a.JacobiIterationMatrix()
	if err != nil {
		// Unreachable after the diagonal scan, but never panic on races
		// between checks and exotic inputs.
		return Certificate{
			Class: ClassZeroDiagonal, Verdict: VerdictDiverges,
			Reason: fmt.Sprintf("Jacobi splitting undefined: %v", err),
		}, nil
	}
	abs := b.Abs()
	lo, hi, berr := spectral.NonNegativeRadiusBounds(abs, opt.BoundSweeps)
	if berr != nil {
		lo, hi = 0, math.Inf(1)
	}
	pr, _ := spectral.NonNegativeRadius(abs, opt.MaxPowerIters, opt.PowerTol)
	if !pr.Converged || hi >= 1 {
		// A periodic |B| (bipartite sparsity, e.g. any tridiagonal pattern)
		// has eigenvalues on more than one ray of modulus ρ: power iterates
		// then oscillate forever and the Collatz–Wielandt ratios never
		// tighten. For nonnegative M and ε > 0, ρ(M + εI) = ρ(M) + ε and
		// the shifted Perron root is strictly dominant, so rerun both
		// estimates on the shifted matrix and translate back.
		eps := 0.5 * math.Max(pr.Radius, lo)
		if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
			eps = 1
		}
		sh := addScaledIdentity(abs, eps)
		if slo, shi, serr := spectral.NonNegativeRadiusBounds(sh, opt.BoundSweeps); serr == nil {
			if v := math.Max(slo-eps, 0); v > lo {
				lo = v
			}
			if v := math.Max(shi-eps, 0); v < hi {
				hi = v
			}
		}
		if spr, _ := spectral.NonNegativeRadius(sh, opt.MaxPowerIters, opt.PowerTol); spr.Converged {
			pr.Converged = true
			pr.Radius = math.Max(spr.Radius-eps, 0)
		}
	}
	cert.RhoConverged = pr.Converged
	est := pr.Radius
	if est < lo {
		est = lo
	}
	if !math.IsInf(hi, 1) && est > hi {
		est = hi
	}
	cert.RhoEstimate = est
	cert.RhoLower = lo
	if !math.IsInf(hi, 1) {
		cert.RhoUpper = hi
	}

	zpattern := isZMatrix(a)

	switch {
	case minDom > 1:
		cert.Class = ClassStrictDiagDominant
	case minDom >= 1 && strictRows > 0 && stronglyConnected(a):
		cert.Class = ClassIrreducibleDiagDominant
	case zpattern && hi < 1:
		cert.Class = ClassMMatrix
	default:
		cert.Class = ClassSpectral
	}

	// Verdict: analytic classes and a proven ρ(|B|) < 1 certify
	// convergence; divergence needs ρ(B) > 1 (for Z-patterns B = |B|, so
	// the Collatz–Wielandt lower bound is already that proof; otherwise
	// the symmetric Rayleigh bound or a converged ρ(B) estimate decides).
	switch {
	case cert.Class == ClassStrictDiagDominant:
		cert.Verdict = VerdictConverges
		cert.Reason = fmt.Sprintf("strict diagonal dominance: ‖B‖∞ ≤ %.4g < 1, every asynchronous schedule contracts", 1/minDom)
	case cert.Class == ClassIrreducibleDiagDominant:
		cert.Verdict = VerdictConverges
		cert.Reason = "irreducible diagonal dominance: ρ(|B|) < 1 by Perron–Frobenius"
	case hi < 1:
		cert.Verdict = VerdictConverges
		if cert.Class == ClassMMatrix {
			cert.Reason = fmt.Sprintf("nonsingular M-matrix: ρ(B) = ρ(|B|) ≤ %.4g < 1 (Collatz–Wielandt)", hi)
		} else {
			cert.Reason = fmt.Sprintf("ρ(|B|) ≤ %.4g < 1 (Collatz–Wielandt): Strikwerda condition holds", hi)
		}
	case pr.Converged && est < 1-opt.Margin:
		cert.Verdict = VerdictConverges
		cert.Reason = fmt.Sprintf("ρ(|B|) ≈ %.4g < 1 (converged power estimate): Strikwerda condition holds", est)
	case zpattern && lo > 1+opt.Margin:
		cert.Verdict = VerdictDiverges
		cert.RhoJacobi = lo
		cert.Reason = fmt.Sprintf("Z-pattern with ρ(B) = ρ(|B|) ≥ %.4g > 1 (Collatz–Wielandt): the iteration expands", lo)
	default:
		rhoB, proven := jacobiRhoLower(a, b, opt)
		cert.RhoJacobi = rhoB
		switch {
		case proven && rhoB > 1+opt.Margin:
			cert.Verdict = VerdictDiverges
			cert.Reason = fmt.Sprintf("ρ(B) ≥ %.4g > 1: the stationary iteration expands for generic data", rhoB)
		case pr.Converged:
			cert.Verdict = VerdictUnknown
			cert.Reason = fmt.Sprintf("ρ(|B|) ≈ %.4g ≥ 1: no asynchronous guarantee, divergence not proven (ρ(B) est %.4g)", est, rhoB)
		default:
			cert.Verdict = VerdictUnknown
			cert.Reason = "spectral estimates did not resolve within the work bound"
		}
	}

	if cert.Verdict == VerdictConverges {
		cert.PredictedIters = predictIters(rateFor(cert, pr.Converged), opt.TargetDigits)
	}
	return cert, nil
}

// addScaledIdentity returns m + eps·I for a square matrix m.
func addScaledIdentity(m *sparse.CSR, eps float64) *sparse.CSR {
	c := sparse.NewCOO(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c.Add(i, m.ColIdx[k], m.Val[k])
		}
		c.Add(i, i, eps)
	}
	return c.ToCSR()
}

// rateFor picks the contraction rate backing PredictedIters: the converged
// power estimate when available, else the tightest rigorous upper bound.
func rateFor(c Certificate, estConverged bool) float64 {
	rate := math.Inf(1)
	if estConverged {
		rate = c.RhoEstimate
	}
	if c.RhoUpper > 0 && c.RhoUpper < rate {
		rate = c.RhoUpper
	}
	if c.Dominance > 1 && 1/c.Dominance < rate {
		rate = 1 / c.Dominance
	}
	if math.IsInf(rate, 1) {
		rate = c.RhoEstimate
	}
	return rate
}

// predictIters prices digits orders of residual reduction at contraction
// rate rho per global iteration: ceil(digits·ln10 / −ln ρ), clamped into
// [1, maxPredicted].
func predictIters(rho, digits float64) int {
	if rho <= 0 {
		return 1
	}
	if rho >= 1 {
		return maxPredicted
	}
	p := math.Ceil(digits * math.Ln10 / -math.Log(rho))
	if p < 1 {
		return 1
	}
	if p > maxPredicted {
		return maxPredicted
	}
	return int(p)
}

// isZMatrix reports the M-matrix sign pattern: strictly positive diagonal,
// nonpositive off-diagonal entries.
func isZMatrix(a *sparse.CSR) bool {
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			v := a.Val[p]
			if a.ColIdx[p] == i {
				if v <= 0 {
					return false
				}
			} else if v > 0 {
				return false
			}
		}
	}
	return true
}

// stronglyConnected reports whether the sparsity graph of A (edge i→j for
// every stored off-diagonal a_ij ≠ 0) is strongly connected: reachability
// of every vertex from vertex 0 both forward and in the reverse graph.
func stronglyConnected(a *sparse.CSR) bool {
	n := a.Rows
	if n <= 1 {
		return true
	}
	if !reachesAll(a, n) {
		return false
	}
	return reachesAll(a.Transpose(), n)
}

// reachesAll runs a BFS over the stored nonzero pattern from vertex 0.
func reachesAll(a *sparse.CSR, n int) bool {
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	seen[0] = true
	queue = append(queue, 0)
	count := 1
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			j := a.ColIdx[p]
			if j == i || a.Val[p] == 0 || seen[j] {
				continue
			}
			seen[j] = true
			count++
			queue = append(queue, j)
		}
	}
	return count == n
}

// jacobiRhoLower estimates ρ(B). For symmetric A (with the positive
// diagonal already established by the caller's path) it power-iterates the
// symmetrized iteration matrix S = I − D^{−1/2}AD^{−1/2} (similar to B) and
// returns the largest ‖Sx‖₂ over the unit iterates x. For unit x,
// |xᵀSx| ≤ ‖Sx‖₂ ≤ ‖S‖₂ = ρ(B), so this is a rigorous lower bound on ρ(B)
// (proven=true) at least as large as the Rayleigh quotient, which cancels
// toward 0 when S's spectrum is symmetric about 0. For nonsymmetric A it
// falls back to the seeded power estimate, proven only if the estimator
// converged.
func jacobiRhoLower(a, b *sparse.CSR, opt Options) (rho float64, proven bool) {
	iters := opt.MaxPowerIters
	if iters > 512 {
		iters = 512
	}
	if a.IsSymmetric(1e-12) {
		if nrm, err := spectral.NormalizedMatrix(a); err == nil {
			n := nrm.Rows
			rng := rand.New(rand.NewSource(opt.Seed))
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			nn := vecmath.Nrm2(x)
			if nn == 0 {
				return 0, false
			}
			vecmath.Scale(1/nn, x)
			y := make([]float64, n)
			var best float64
			for k := 0; k < iters; k++ {
				nrm.MulVec(y, x)
				for i := range y {
					y[i] = x[i] - y[i] // y = (I − N)x, N = D^{−1/2}AD^{−1/2}
				}
				nn = vecmath.Nrm2(y)
				if nn == 0 {
					break
				}
				best = max(best, nn)
				vecmath.Copy(x, y)
				vecmath.Scale(1/nn, x)
			}
			return best, true
		}
	}
	est, err := spectral.JacobiSpectralRadius(a, opt.Seed)
	return est, err == nil
}
