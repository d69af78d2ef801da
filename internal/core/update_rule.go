package core

import (
	"fmt"
	"strings"

	"repro/internal/sched"
)

// RuleKind selects the update rule the block sweeps apply — the relaxation
// recurrence itself, orthogonal to the engine (who runs which block when)
// and the kernel (how a sweep walks the matrix). Every engine and every
// sweep kernel runs every rule; the rule is threaded through the kernels as
// one shared *updateRule value.
type RuleKind int

const (
	// RuleJacobi is the paper's first-order weighted Jacobi update,
	//
	//	x_{k+1} = x_k + ω D⁻¹ r_k
	//
	// — the default, and the rule every pre-seam capture and golden replay
	// was produced by. It is bit-identical to the pre-seam code path by
	// construction: with β = 0 the kernels take the literal Jacobi sweep
	// loop, no momentum arithmetic executes.
	RuleJacobi RuleKind = iota
	// RuleRichardson2 is the second-order (heavy-ball) asynchronous
	// Richardson update of Chow, Frommer & Szyld,
	//
	//	x_{k+1} = x_k + ω D⁻¹ r_k + β (x_k − x_{k−1})
	//
	// carrying a per-component momentum trail x_{k−1} across block
	// executions. With modest delays the momentum term accelerates the
	// asymptotic rate the way classical heavy-ball does for synchronous
	// Richardson; the bounded-delay cluster ring measures exactly how the
	// advantage decays as MaxDelay grows (see internal/cluster.DelaySweep).
	RuleRichardson2 RuleKind = iota
)

// String returns the rule name used in flags, requests and metrics.
func (r RuleKind) String() string {
	switch r {
	case RuleJacobi:
		return "jacobi"
	case RuleRichardson2:
		return "richardson2"
	}
	return fmt.Sprintf("RuleKind(%d)", int(r))
}

// ParseRule parses a rule name; the empty string means RuleJacobi.
func ParseRule(s string) (RuleKind, error) {
	switch strings.ToLower(s) {
	case "", "jacobi":
		return RuleJacobi, nil
	case "richardson2":
		return RuleRichardson2, nil
	}
	return RuleJacobi, fmt.Errorf(`core: unknown update rule %q (want "jacobi" or "richardson2")`, s)
}

// validateRule checks an update rule and its momentum coefficient, the
// same for every engine.
func validateRule(kind RuleKind, beta float64) error {
	if kind != RuleJacobi && kind != RuleRichardson2 {
		return fmt.Errorf("core: unknown update rule %v", kind)
	}
	if beta < 0 || beta >= 1 {
		return fmt.Errorf("core: Beta must lie in [0,1), have %g", beta)
	}
	if beta != 0 && kind != RuleRichardson2 {
		return fmt.Errorf("core: Beta %g requires Method RuleRichardson2, have %s", beta, kind)
	}
	return nil
}

// updateRule is the per-solve state of the update-rule seam, shared by every
// worker of the solve. The scalar fields are immutable after construction;
// prev — the momentum trail x_{k−1}, indexed like the iterate — is written
// only inside block executions, and each component belongs to exactly one
// block, so the engines' existing ordering (barriers between iterations,
// per-block exclusivity within one) is all the synchronization it needs.
//
// The momentum path gates on beta != 0, NOT on kind: adding a literal
// β·(x_k − x_{k−1}) term with β = 0 would flip −0.0 components to +0.0 and
// break the bitwise jacobi-equivalence contract, so a β = 0 rule of either
// kind runs the unmodified first-order sweep loop.
type updateRule struct {
	kind  RuleKind
	omega float64
	beta  float64
	// prev is the momentum trail; nil iff beta == 0 (no momentum state is
	// allocated or touched on the first-order path).
	prev []float64
	// f32 mirrors Options.Precision == PrecF32: the trail is stored rounded
	// through float32, consistent with the iterate storage.
	f32 bool
}

// newUpdateRule builds a solve's rule state. start is the solve's initial
// iterate, already rounded for the storage precision; guess, when non-nil,
// seeds the momentum trail instead (a Session warm restart carrying its
// trail across steps). With beta == 0 nothing is allocated.
func newUpdateRule(kind RuleKind, omega, beta float64, precision string, start, guess []float64) *updateRule {
	r := &updateRule{kind: kind, omega: omega, beta: beta, f32: precision == PrecF32}
	if beta != 0 {
		r.prev = make([]float64, len(start))
		if guess != nil {
			copy(r.prev, guess)
			roundIterate(precision, r.prev)
		} else {
			// First execution of every block then sees x_{k−1} = x_0, so
			// the momentum term vanishes on the first sweep — the standard
			// heavy-ball start.
			copy(r.prev, start)
		}
	}
	return r
}

// storeMomentum writes a block's sweep trail back into the shared prev
// vector, rounding through float32 under f32 storage so the trail stays at
// the iterate's storage precision.
func storeMomentum(dst, src []float64, f32 bool) {
	if f32 {
		for i, v := range src {
			dst[i] = float64(float32(v))
		}
		return
	}
	copy(dst, src)
}

// replayBeta resolves the momentum coefficient a replay applies. Captures
// taken since the update-rule seam record their method, so their β — zero
// included — is authoritative: replaying a jacobi capture under a
// richardson2 option must not invent momentum the original never had.
// Pre-seam captures have no method field and defer to the caller, exactly
// as Meta.Omega == 0 defers to Options.Omega.
func replayBeta(m sched.Meta, optBeta float64) float64 {
	if m.Method != "" {
		return m.Beta
	}
	return optBeta
}
