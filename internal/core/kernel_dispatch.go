package core

import (
	"fmt"
	"strings"

	"repro/internal/sparse"
)

// KernelKind selects the block-sweep kernel implementation a plan
// dispatches. All kinds produce bit-identical f64 iterates — same
// floating-point operation order, same IterateView.Load call order — so the
// choice is purely a performance decision and every engine, replay and
// shard path runs any of them unchanged (see docs/KERNELS.md).
type KernelKind int

const (
	// KernelAuto picks the best kernel the matrix supports: the
	// matrix-free stencil kernel when DetectStencil accepts the matrix,
	// packed CSR otherwise.
	KernelAuto KernelKind = iota
	// KernelCSR is the packed block-CSR kernel (runBlockKernel), the
	// baseline every other kind is gated against.
	KernelCSR
	// KernelStencil is the matrix-free constant-coefficient stencil
	// kernel: interior rows keep the whole stencil in locals and load no
	// column indices; boundary rows fall back to packed CSR.
	KernelStencil
)

// String returns the kernel name used in flags, requests and metrics.
func (k KernelKind) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelCSR:
		return "csr"
	case KernelStencil:
		return "stencil"
	}
	return fmt.Sprintf("KernelKind(%d)", int(k))
}

// ParseKernel parses a kernel name; the empty string means KernelAuto.
func ParseKernel(s string) (KernelKind, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return KernelAuto, nil
	case "csr":
		return KernelCSR, nil
	case "stencil":
		return KernelStencil, nil
	}
	return KernelAuto, fmt.Errorf(`core: unknown kernel %q (want "auto", "csr" or "stencil")`, s)
}

// PlanConfig selects the kernel variant a plan is built for. The zero
// value (KernelAuto, no declared stencil) reproduces NewPlan's behavior:
// detect stencil structure, dispatch the fast path when it is there, packed
// CSR otherwise.
type PlanConfig struct {
	// Kernel selects the sweep kernel. KernelStencil fails plan
	// construction when the matrix has no (detected or declared) stencil
	// structure or when the packed staging is unavailable (column indices
	// beyond int32).
	Kernel KernelKind
	// Stencil optionally declares the stencil instead of detecting it —
	// for operators the caller generated and knows exactly. A declared
	// spec implies KernelStencil under KernelAuto and must match at least
	// one row. Declared specs skip the detection threshold: even a
	// boundary-heavy matrix runs the declared stencil on whatever interior
	// rows it has.
	Stencil *sparse.StencilSpec
}

// stencilData is the per-plan state of the matrix-free stencil kernel: the
// non-diagonal (offset, coefficient) pairs in ascending offset order, the
// full stencil span for the in-block fast test, and the per-row
// interior/boundary classification.
type stencilData struct {
	info     *sparse.StencilInfo
	offs     []int     // non-diagonal offsets, ascending
	coeffs   []float64 // coefficients parallel to offs
	dmin     int       // first offset of the full stencil (≤ 0)
	dmax     int       // last offset of the full stencil (≥ 0)
	interior []bool    // per global row; false rows take the CSR fallback
}

func newStencilData(si *sparse.StencilInfo) *stencilData {
	sd := &stencilData{
		info:     si,
		interior: si.Interior,
		dmin:     si.Spec.Offsets[0],
		dmax:     si.Spec.Offsets[len(si.Spec.Offsets)-1],
	}
	if sd.dmin > 0 {
		sd.dmin = 0
	}
	if sd.dmax < 0 {
		sd.dmax = 0
	}
	for p, d := range si.Spec.Offsets {
		if d != 0 {
			sd.offs = append(sd.offs, d)
			sd.coeffs = append(sd.coeffs, si.Spec.Coeffs[p])
		}
	}
	return sd
}

func (sd *stencilData) memoryBytes() int64 {
	const w = 8
	return w*int64(len(sd.offs)+len(sd.coeffs)) + int64(len(sd.interior))
}

// rowSpan is a half-open block-local row range [lo, hi).
type rowSpan struct{ lo, hi int32 }

// buildStencilSpans precomputes, for every block, the maximal runs of rows
// the stencil kernel's fast loop covers: interior rows whose whole stencil
// span lies inside the block. The sweeps walk these runs branch-free and
// hand the gaps between them to the ranged slow path in one call per gap,
// so no per-row class test (band bounds, interior flag) survives into the
// hot loop — that test was worth ~30% of the sweep on the fv family.
func buildStencilSpans(p *Plan) {
	sd := p.stencil
	for bi := range p.views {
		v := &p.views[bi]
		bs := v.hi - v.lo
		loFast := -sd.dmin
		hiFast := bs - sd.dmax
		v.stSpans = v.stSpans[:0]
		for r := loFast; r < hiFast; {
			if !sd.interior[v.lo+r] {
				r++
				continue
			}
			s := r
			for r < hiFast && sd.interior[v.lo+r] {
				r++
			}
			v.stSpans = append(v.stSpans, rowSpan{int32(s), int32(r)})
		}
	}
}

// resolveKernel decides the plan's kernel and builds its data. Called from
// plan construction after the views are staged.
func (p *Plan) resolveKernel(cfg PlanConfig) error {
	kind := cfg.Kernel
	if kind == KernelAuto && cfg.Stencil != nil {
		kind = KernelStencil
	}
	switch kind {
	case KernelAuto:
		p.kernel = KernelCSR
		if p.staged && !p.exactLocal {
			if si, ok := sparse.DetectStencil(p.a); ok {
				p.stencil = newStencilData(si)
				p.kernel = KernelStencil
				buildStencilSpans(p)
			}
		}
		return nil
	case KernelCSR:
		p.kernel = KernelCSR
		return nil
	case KernelStencil:
		if !p.staged {
			return fmt.Errorf("core: stencil kernel needs packed staging (column indices exceed int32)")
		}
		if cfg.Stencil != nil {
			si, err := sparse.MatchStencil(p.a, *cfg.Stencil)
			if err != nil {
				return err
			}
			if si.InteriorRows == 0 {
				return fmt.Errorf("core: declared stencil (offsets %v) matches no row of the matrix",
					cfg.Stencil.Offsets)
			}
			p.stencil = newStencilData(si)
		} else {
			si, ok := sparse.DetectStencil(p.a)
			if !ok {
				return fmt.Errorf("core: no constant-coefficient stencil structure detected; declare a StencilSpec or use the csr kernel")
			}
			p.stencil = newStencilData(si)
		}
		p.kernel = KernelStencil
		buildStencilSpans(p)
		return nil
	}
	return fmt.Errorf("core: unknown kernel kind %v", cfg.Kernel)
}

// Kernel returns the resolved sweep kernel the plan dispatches.
func (p *Plan) Kernel() KernelKind { return p.kernel }

// StencilInfo returns the stencil the plan's kernel uses (detected or
// declared), or nil when the plan does not run the stencil kernel.
func (p *Plan) StencilInfo() *sparse.StencilInfo {
	if p.stencil == nil {
		return nil
	}
	return p.stencil.info
}
