package core

import (
	"repro/internal/sparse"
)

// runBlockKernelSELL runs the k local sweeps over the block's SELL-C
// layout (see sellBlock); gather, update rule and publish are runStaged's,
// as for every staged kernel.
func runBlockKernelSELL(a *sparse.CSR, sp *sparse.Splitting, b []float64, v *blockView,
	k int, rule *updateRule, offRead, locRead valueReader, write valueWriter, scr *kernelScratch) float64 {
	return runStaged(sellSweep, sp, b, v, k, rule, offRead, locRead, write, scr)
}

// sellSweep walks the block's fixed-height row slices slot-major, so the
// inner loop is a fixed-trip pass over sellC contiguous lanes — the layout
// ELL/SELL kernels use to vectorize on GPUs and SIMD CPUs. Padding lanes
// carry column −1 and are skipped by the branch, never multiplied, so the
// per-row floating-point sequence is the CSR kernels' ascending-column
// order and the iterates stay bit-identical.
func sellSweep(v *blockView, s, xloc, xnew, invd []float64, omega float64) {
	sb := v.sell
	bs := len(s)
	ns := len(sb.sliceOff) - 1
	for sl := 0; sl < ns; sl++ {
		base := int(sb.sliceOff[sl])
		width := (int(sb.sliceOff[sl+1]) - base) / sellC
		r0 := sl * sellC
		lanes := bs - r0
		if lanes > sellC {
			lanes = sellC
		}
		var acc [sellC]float64
		for l := 0; l < lanes; l++ {
			acc[l] = s[r0+l]
		}
		if lanes == sellC {
			// Full slice: constant lane indices keep the eight
			// accumulators in registers (eight independent FP chains)
			// and prove every slot access in bounds.
			for slot := 0; slot < width; slot++ {
				cols := (*[sellC]int32)(sb.cols[base+slot*sellC:])
				vals := (*[sellC]float64)(sb.vals[base+slot*sellC:])
				if c := cols[0]; c >= 0 {
					acc[0] -= vals[0] * xloc[c]
				}
				if c := cols[1]; c >= 0 {
					acc[1] -= vals[1] * xloc[c]
				}
				if c := cols[2]; c >= 0 {
					acc[2] -= vals[2] * xloc[c]
				}
				if c := cols[3]; c >= 0 {
					acc[3] -= vals[3] * xloc[c]
				}
				if c := cols[4]; c >= 0 {
					acc[4] -= vals[4] * xloc[c]
				}
				if c := cols[5]; c >= 0 {
					acc[5] -= vals[5] * xloc[c]
				}
				if c := cols[6]; c >= 0 {
					acc[6] -= vals[6] * xloc[c]
				}
				if c := cols[7]; c >= 0 {
					acc[7] -= vals[7] * xloc[c]
				}
			}
		} else {
			for slot := 0; slot < width; slot++ {
				o := base + slot*sellC
				cols := sb.cols[o : o+sellC]
				vals := sb.vals[o : o+sellC]
				for l := 0; l < lanes; l++ {
					if c := cols[l]; c >= 0 {
						acc[l] -= vals[l] * xloc[c]
					}
				}
			}
		}
		for l := 0; l < lanes; l++ {
			r := r0 + l
			xnew[r] = (1-omega)*xloc[r] + omega*acc[l]*invd[r]
		}
	}
}
