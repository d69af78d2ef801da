package core

import (
	"repro/internal/sparse"
)

// runBlockKernelStencil is the matrix-free fast path for constant-
// coefficient stencil operators. Gather, update rule and publish are
// runStaged's; the k local sweeps walk the block's precomputed fast spans
// (buildStencilSpans) — maximal runs of interior rows whose whole stencil
// lies inside the block:
//
//   - rows inside a span run the branch-free fast loop — offsets and
//     coefficients live in locals, no column index is loaded and no per-row
//     class test executes;
//   - the gaps between spans go to the ranged slow path in one call per
//     gap: straddling interior rows test each offset against the block
//     bounds (the off-block part is already frozen in s, still no column
//     loads), boundary rows (domain edges, perturbed rows) stream the
//     packed CSR arrays, identical to runBlockKernel.
//
// Every class subtracts its row's non-diagonal entries in ascending column
// order and applies the same (1−ω)·x + ω·acc·d⁻¹ update, so iterates are
// bit-identical to the CSR kernels and IterateView.Load consumption is
// unchanged (the simulated engine's racing reader draws the same RNG
// sequence) — property-tested in kernel_dispatch_test.go.
func (p *Plan) runBlockKernelStencil(a *sparse.CSR, sp *sparse.Splitting, b []float64, v *blockView,
	k int, rule *updateRule, offRead, locRead valueReader, write valueWriter, scr *kernelScratch) float64 {
	return runStaged(p.stencil.sweep, sp, b, v, k, rule, offRead, locRead, write, scr)
}

// sweep is the stencil kernel's sweepFunc: the 4- and 8-offset widths have
// specializations with the offsets and coefficients in locals.
func (sd *stencilData) sweep(v *blockView, s, xloc, xnew, invd []float64, omega float64) {
	switch len(sd.offs) {
	case 4:
		stencilSweep4(sd, v, s, xloc, xnew, invd, omega, len(s))
	case 8:
		stencilSweep8(sd, v, s, xloc, xnew, invd, omega, len(s))
	default:
		stencilSweepN(sd, v, s, xloc, xnew, invd, omega, len(s))
	}
}

// stencilRowsSlow sweeps the rows of [lo, hi) that sit outside the fast
// spans: straddling interior rows (per-offset bounds test, no column loads)
// and boundary rows (packed CSR). One call covers a whole gap, so the call
// overhead amortizes over the run instead of recurring per row.
func stencilRowsSlow(sd *stencilData, v *blockView,
	s, xloc, xnew, invd []float64, omega float64, bs, lo, hi int) {

	interior := sd.interior[v.lo:v.hi]
	offs, coeffs := sd.offs, sd.coeffs
	ptr := v.locPtr[:hi+1]
	for r := lo; r < hi; r++ {
		acc := s[r]
		if interior[r] {
			for p, d := range offs {
				if j := r + d; uint(j) < uint(bs) {
					acc -= coeffs[p] * xloc[j]
				}
			}
		} else {
			cols, vals := packedRow(ptr, v.locCols, v.locVal, r)
			for p, c := range cols {
				acc -= vals[p] * xloc[c]
			}
		}
		xnew[r] = (1-omega)*xloc[r] + omega*acc*invd[r]
	}
}

// stencilSweep4 is the 5-point specialization (Poisson2D): the four
// off-diagonal coefficients and offsets are locals, and the span rows run
// with no class tests and no memory loads beyond s and the iterate.
func stencilSweep4(sd *stencilData, v *blockView,
	s, xloc, xnew, invd []float64, omega float64, bs int) {

	d0, d1, d2, d3 := sd.offs[0], sd.offs[1], sd.offs[2], sd.offs[3]
	c0, c1, c2, c3 := sd.coeffs[0], sd.coeffs[1], sd.coeffs[2], sd.coeffs[3]
	prev := 0
	for _, span := range v.stSpans {
		lo, hi := int(span.lo), int(span.hi)
		if prev < lo {
			stencilRowsSlow(sd, v, s, xloc, xnew, invd, omega, bs, prev, lo)
		}
		// Length-matched subslices: every operand slice has exactly the
		// span's length, so the compiler proves all index expressions in
		// bounds and the loop runs check-free.
		n := hi - lo
		sv, xc := s[lo:hi:hi], xloc[lo:hi:hi]
		nv, iv := xnew[lo:hi:hi], invd[lo:hi:hi]
		x0s := xloc[lo+d0 : lo+d0+n : lo+d0+n]
		x1s := xloc[lo+d1 : lo+d1+n : lo+d1+n]
		x2s := xloc[lo+d2 : lo+d2+n : lo+d2+n]
		x3s := xloc[lo+d3 : lo+d3+n : lo+d3+n]
		for i := range sv {
			acc := sv[i] - c0*x0s[i] - c1*x1s[i] - c2*x2s[i] - c3*x3s[i]
			nv[i] = (1-omega)*xc[i] + omega*acc*iv[i]
		}
		prev = hi
	}
	if prev < bs {
		stencilRowsSlow(sd, v, s, xloc, xnew, invd, omega, bs, prev, bs)
	}
}

// stencilSweep8 is the 9-point specialization (fv, s1rmt3m1).
func stencilSweep8(sd *stencilData, v *blockView,
	s, xloc, xnew, invd []float64, omega float64, bs int) {

	d0, d1, d2, d3 := sd.offs[0], sd.offs[1], sd.offs[2], sd.offs[3]
	d4, d5, d6, d7 := sd.offs[4], sd.offs[5], sd.offs[6], sd.offs[7]
	c0, c1, c2, c3 := sd.coeffs[0], sd.coeffs[1], sd.coeffs[2], sd.coeffs[3]
	c4, c5, c6, c7 := sd.coeffs[4], sd.coeffs[5], sd.coeffs[6], sd.coeffs[7]
	prev := 0
	for _, span := range v.stSpans {
		lo, hi := int(span.lo), int(span.hi)
		if prev < lo {
			stencilRowsSlow(sd, v, s, xloc, xnew, invd, omega, bs, prev, lo)
		}
		// Length-matched subslices, as in stencilSweep4: check-free loop.
		n := hi - lo
		sv, xc := s[lo:hi:hi], xloc[lo:hi:hi]
		nv, iv := xnew[lo:hi:hi], invd[lo:hi:hi]
		x0s := xloc[lo+d0 : lo+d0+n : lo+d0+n]
		x1s := xloc[lo+d1 : lo+d1+n : lo+d1+n]
		x2s := xloc[lo+d2 : lo+d2+n : lo+d2+n]
		x3s := xloc[lo+d3 : lo+d3+n : lo+d3+n]
		x4s := xloc[lo+d4 : lo+d4+n : lo+d4+n]
		x5s := xloc[lo+d5 : lo+d5+n : lo+d5+n]
		x6s := xloc[lo+d6 : lo+d6+n : lo+d6+n]
		x7s := xloc[lo+d7 : lo+d7+n : lo+d7+n]
		for i := range sv {
			acc := sv[i] - c0*x0s[i] - c1*x1s[i] - c2*x2s[i] - c3*x3s[i]
			acc = acc - c4*x4s[i] - c5*x5s[i] - c6*x6s[i] - c7*x7s[i]
			nv[i] = (1-omega)*xc[i] + omega*acc*iv[i]
		}
		prev = hi
	}
	if prev < bs {
		stencilRowsSlow(sd, v, s, xloc, xnew, invd, omega, bs, prev, bs)
	}
}

// stencilSweepN is the generic fallback for other stencil widths,
// including the width-1 pure-diagonal case (1×1 grids).
func stencilSweepN(sd *stencilData, v *blockView,
	s, xloc, xnew, invd []float64, omega float64, bs int) {

	offs, coeffs := sd.offs, sd.coeffs
	prev := 0
	for _, span := range v.stSpans {
		lo, hi := int(span.lo), int(span.hi)
		if prev < lo {
			stencilRowsSlow(sd, v, s, xloc, xnew, invd, omega, bs, prev, lo)
		}
		for r := lo; r < hi; r++ {
			acc := s[r]
			for p, d := range offs {
				acc -= coeffs[p] * xloc[r+d]
			}
			xnew[r] = (1-omega)*xloc[r] + omega*acc*invd[r]
		}
		prev = hi
	}
	if prev < bs {
		stencilRowsSlow(sd, v, s, xloc, xnew, invd, omega, bs, prev, bs)
	}
}
