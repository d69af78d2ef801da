package core

import (
	"math"
	"sort"

	"repro/internal/sparse"
)

// blockView caches, for every row of one block, the split of its CSR entry
// range into the in-block segment [inLo, inHi) and the off-block remainder,
// plus — when staging is possible — a packed copy of the block's entries
// laid out the way the kernel consumes them (see buildBlockViews).
//
// The packed arrays are the host-side analogue of a GPU kernel staging its
// subdomain into shared memory (the mechanism behind the paper's §4.3
// "local iterations almost come for free"): the k local sweeps stream one
// contiguous (ptr, cols, vals) triple per block instead of picking strided
// sub-segments out of the global CSR arrays, the diagonal is excluded
// structurally (no per-entry branch in the innermost loop), and the column
// indices are pre-translated to block-local int32 offsets (half the index
// traffic of the global int columns).
type blockView struct {
	lo, hi int // row range [lo, hi)
	// inLo[r], inHi[r] bound the in-block entries of row lo+r in ColIdx/Val.
	inLo, inHi []int
	// nnzLocal counts in-block nonzeros, nnzOff the off-block ones.
	nnzLocal, nnzOff int

	// Packed off-block entries, per row in the exact order the reference
	// gather visits them (the entries before the in-block segment, then the
	// entries after it). offPtr[r]..offPtr[r+1] bound row lo+r.
	offPtr  []int32
	offCols []int32 // global column indices
	offVal  []float64
	// Packed in-block entries with the diagonal removed and columns
	// translated to block-local indices. locPtr[r]..locPtr[r+1] bound row
	// lo+r.
	locPtr  []int32
	locCols []int32 // block-local column indices
	locVal  []float64

	// sell holds the same local entries in sliced-ELLPACK layout; non-nil
	// only on plans built with KernelSELL (see kernel_dispatch.go).
	sell *sellBlock

	// stSpans lists the maximal runs of rows the stencil kernel's
	// branch-free fast loop covers (interior rows whose whole stencil span
	// lies inside the block); non-empty only on stencil plans. Precomputing
	// the runs moves every per-row class test out of the sweep loops (see
	// buildStencilSpans).
	stSpans []rowSpan
}

// memoryBytes estimates the resident size of the view (plan accounting).
func (v *blockView) memoryBytes() int64 {
	const w, w32 = 8, 4
	sz := 2*w*int64(len(v.inLo)) + 6*w // inLo+inHi plus the fixed fields
	sz += w32 * int64(len(v.offPtr)+len(v.offCols)+len(v.locPtr)+len(v.locCols))
	sz += w * int64(len(v.offVal)+len(v.locVal))
	if v.sell != nil {
		sz += v.sell.memoryBytes()
	}
	sz += w * int64(len(v.stSpans))
	return sz
}

// buildBlockViews precomputes the views for every block of the partition.
// staged reports whether the packed arrays were built; they are skipped
// only when a column index cannot be represented as an int32 (the packed
// layout would be unsound), in which case the engines fall back to the
// reference kernel.
func buildBlockViews(a *sparse.CSR, part sparse.BlockPartition) (views []blockView, staged bool) {
	staged = a.Cols <= math.MaxInt32
	views = make([]blockView, part.NumBlocks())
	for bi := range views {
		lo, hi := part.Bounds(bi)
		bs := hi - lo
		v := blockView{lo: lo, hi: hi, inLo: make([]int, bs), inHi: make([]int, bs)}
		for i := lo; i < hi; i++ {
			rs, re := a.RowPtr[i], a.RowPtr[i+1]
			cols := a.ColIdx[rs:re]
			s := rs + sort.SearchInts(cols, lo)
			e := rs + sort.SearchInts(cols, hi)
			v.inLo[i-lo], v.inHi[i-lo] = s, e
			v.nnzLocal += e - s
			v.nnzOff += (re - rs) - (e - s)
		}
		if staged {
			v.offPtr = make([]int32, bs+1)
			v.locPtr = make([]int32, bs+1)
			v.offCols = make([]int32, 0, v.nnzOff)
			v.offVal = make([]float64, 0, v.nnzOff)
			v.locCols = make([]int32, 0, v.nnzLocal)
			v.locVal = make([]float64, 0, v.nnzLocal)
			for i := lo; i < hi; i++ {
				r := i - lo
				for p := a.RowPtr[i]; p < v.inLo[r]; p++ {
					v.offCols = append(v.offCols, int32(a.ColIdx[p]))
					v.offVal = append(v.offVal, a.Val[p])
				}
				for p := v.inHi[r]; p < a.RowPtr[i+1]; p++ {
					v.offCols = append(v.offCols, int32(a.ColIdx[p]))
					v.offVal = append(v.offVal, a.Val[p])
				}
				v.offPtr[r+1] = int32(len(v.offCols))
				for p := v.inLo[r]; p < v.inHi[r]; p++ {
					if j := a.ColIdx[p]; j != i {
						v.locCols = append(v.locCols, int32(j-lo))
						v.locVal = append(v.locVal, a.Val[p])
					}
				}
				v.locPtr[r+1] = int32(len(v.locCols))
			}
		}
		views[bi] = v
	}
	return views, staged
}

// valueReader is the kernels' historical name for the substrate's
// IterateView: how a block kernel observes off-block components of the
// iterate. The simulated engine passes plain slices (live or snapshot), the
// goroutine engines pass the AtomicVector, the sharded executor composed
// shard views.
type valueReader = IterateView

// sliceReader adapts a plain []float64 to valueReader.
type sliceReader []float64

func (s sliceReader) Load(i int) float64 { return s[i] }

// valueWriter abstracts how the kernel publishes updated block components.
type valueWriter interface {
	Store(i int, v float64)
}

// sliceWriter adapts a plain []float64 to valueWriter.
type sliceWriter []float64

func (s sliceWriter) Store(i int, v float64) { s[i] = v }

// kernelScratch holds the per-worker buffers of the block kernels, sized
// for the largest block, so repeated kernel invocations do not allocate.
// Plans hold a pool of these (see Plan.getScratch) so steady-state solves
// reuse warm buffers instead of allocating per solve.
type kernelScratch struct {
	s, xloc, xnew, x0 []float64
	// xprev holds the momentum trail x_{k−1} during a momentum-rule block
	// execution; unused (but kept warm in the pool) on the first-order path.
	xprev []float64
}

func newKernelScratch(maxBlock int) *kernelScratch {
	return &kernelScratch{
		s:     make([]float64, maxBlock),
		xloc:  make([]float64, maxBlock),
		xnew:  make([]float64, maxBlock),
		x0:    make([]float64, maxBlock),
		xprev: make([]float64, maxBlock),
	}
}

// kernelFunc is the signature shared by all block-sweep kernels. rule is
// the solve's update rule (relaxation weight, momentum state); the kernels
// read its scalars and, on the momentum path, its shared prev trail — each
// block touching only its own components. The return value is the squared
// l2 norm of the block's iterate update, ‖x_J^new − x_J^old‖₂² — computed
// nearly for free in the publish loop and consumed by the incremental
// residual estimate (Options.ResidualEvery).
type kernelFunc func(a *sparse.CSR, sp *sparse.Splitting, b []float64, v *blockView,
	k int, rule *updateRule, offRead, locRead valueReader, write valueWriter, scr *kernelScratch) float64

// runBlockKernel executes one thread block of the paper's Algorithm 1,
// generalized with the relaxation weight ω:
//
//	read x from global memory                 (off-block via offRead,
//	                                           in-block starting values via locRead)
//	s_i := b_i − Σ_{j∉J} a_ij x_j             (off-block part, frozen)
//	repeat k times (synchronous weighted Jacobi on the subdomain):
//	    x_i := (1−ω)x_i + ω(s_i − Σ_{j∈J, j≠i} a_ij x_j) / a_ii
//	write the block's x values back           (via write)
//
// This is the fused hot path: both the gather and the sweeps stream the
// block's packed sub-CSR arrays (blockView staging), so each local sweep
// walks the block's rows once through contiguous memory with no diagonal
// branch and no per-entry index translation. Its floating-point operation
// order and its valueReader.Load call order are exactly those of
// runBlockKernelReference, so the two produce bit-identical iterates (and
// identical RNG consumption in the simulated engine's racing reader) —
// property-tested in kernel_fused_test.go.
//
// offRead and locRead may observe a live, concurrently-updated iterate —
// that is the asynchronous part; the kernel itself is oblivious to it.
func runBlockKernel(a *sparse.CSR, sp *sparse.Splitting, b []float64, v *blockView,
	k int, rule *updateRule, offRead, locRead valueReader, write valueWriter, scr *kernelScratch) float64 {
	return runStaged(csrSweep, sp, b, v, k, rule, offRead, locRead, write, scr)
}

// sweepFunc runs one first-order local sweep of a staged kernel over the
// block: for every row r, xnew[r] = (1−ω)·xloc[r] + ω·acc·invd[r] with
// acc = s[r] minus the row's non-diagonal in-block entries times xloc,
// subtracted in ascending column order. Every staged kernel (packed CSR,
// SELL, stencil) keeps exactly this floating-point sequence, which is what
// makes their iterates bit-identical.
type sweepFunc func(v *blockView, s, xloc, xnew, invd []float64, omega float64)

// runStaged is the block execution every staged kernel shares: the fused
// gather, k sweeps of the kernel's sweepFunc under the solve's update rule,
// and the publish. The return value is the squared update norm
// ‖x_J^new − x_J^old‖₂².
func runStaged(sweep sweepFunc, sp *sparse.Splitting, b []float64, v *blockView,
	k int, rule *updateRule, offRead, locRead valueReader, write valueWriter, scr *kernelScratch) float64 {

	omega := rule.omega
	bs := v.hi - v.lo
	s := scr.s[:bs]
	xloc := scr.xloc[:bs]
	xnew := scr.xnew[:bs]
	x0 := scr.x0[:bs]
	invd := sp.InvDiag[v.lo:v.hi]
	gather(b, v, offRead, locRead, s, xloc, x0)

	if rule.beta != 0 && rule.prev != nil {
		// Second-order (momentum) sweeps: each sweep adds β(x_k − x_{k−1})
		// to the first-order update as a post-pass, fl(fl(first-order) +
		// fl(β·Δ)) — the rounding of the reference kernel's one-expression
		// form — and rotates the three buffers so x_k becomes the next
		// sweep's x_{k−1}. The trail persists across block executions
		// through rule.prev, written back after the last sweep.
		beta := rule.beta
		xprev := scr.xprev[:bs]
		prev := rule.prev[v.lo:v.hi]
		copy(xprev, prev)
		for it := 0; it < k; it++ {
			sweep(v, s, xloc, xnew, invd, omega)
			for r := range xnew {
				xnew[r] += beta * (xloc[r] - xprev[r])
			}
			xprev, xloc, xnew = xloc, xnew, xprev
		}
		storeMomentum(prev, xprev, rule.f32)
	} else {
		for it := 0; it < k; it++ {
			sweep(v, s, xloc, xnew, invd, omega)
			xloc, xnew = xnew, xloc
		}
	}
	return publish(write, v.lo, xloc, x0)
}

// csrSweep is the packed-CSR sweep: it streams the block's local sub-CSR
// (diagonal structurally excluded, columns block-local).
func csrSweep(v *blockView, s, xloc, xnew, invd []float64, omega float64) {
	ptr := v.locPtr[:len(s)+1]
	xloc, xnew, invd = xloc[:len(s)], xnew[:len(s)], invd[:len(s)]
	for r, acc := range s {
		cols, vals := packedRow(ptr, v.locCols, v.locVal, r)
		for p, c := range cols {
			acc -= vals[p] * xloc[c]
		}
		xnew[r] = (1-omega)*xloc[r] + omega*acc*invd[r]
	}
}

// packedRow returns row r's entries of a packed (ptr, cols, vals) triple,
// resliced to one common length so the loops over them carry no bounds
// checks on cols or vals.
func packedRow(ptr, cols []int32, vals []float64, r int) ([]int32, []float64) {
	lo, hi := ptr[r], ptr[r+1]
	c := cols[lo:hi]
	return c, vals[lo:hi][:len(c)]
}

// gather is the fused gather every staged kernel shares: one streaming
// pass over the block's packed off-block entries computes the frozen
// right-hand side s and loads the block's starting values into xloc and
// x0. Per row it loads the off-block entries in packed order, then the
// row's own component: the reference kernel's Load order, which the
// simulated engine's racing reader turns into its coin order.
//
// The two iterate stores the engines hand the kernels take a loop with the
// concrete Load inlined: the shared *AtomicVector of the goroutine and
// free-running engines (and of their replays), and the simulated engine's
// racing *mixReader. Each is taken only when the same store serves both
// reads (the concrete pointers are compared after the type switch;
// comparing the interfaces panics on slice-backed views), so the Loads
// interleave exactly as in the interface loop. Every other view — the
// stale snapshot, shard, device and delay-ring views, the trace's
// countingReader — runs the IterateView loop.
func gather(b []float64, v *blockView, offRead, locRead valueReader, s, xloc, x0 []float64) {
	b = b[v.lo:v.hi]
	s, xloc, x0 = s[:len(b)], xloc[:len(b)], x0[:len(b)]
	ptr := v.offPtr[:len(b)+1]
	switch off := offRead.(type) {
	case *AtomicVector:
		if loc, ok := locRead.(*AtomicVector); ok && loc == off {
			for r, acc := range b {
				cols, vals := packedRow(ptr, v.offCols, v.offVal, r)
				for p, c := range cols {
					acc -= vals[p] * off.Load(int(c))
				}
				s[r] = acc
				xv := off.Load(v.lo + r)
				xloc[r], x0[r] = xv, xv
			}
			return
		}
	case *mixReader:
		if loc, ok := locRead.(*mixReader); ok && loc == off {
			for r, acc := range b {
				cols, vals := packedRow(ptr, v.offCols, v.offVal, r)
				for p, c := range cols {
					acc -= vals[p] * off.Load(int(c))
				}
				s[r] = acc
				xv := off.Load(v.lo + r)
				xloc[r], x0[r] = xv, xv
			}
			return
		}
	}
	for r, acc := range b {
		cols, vals := packedRow(ptr, v.offCols, v.offVal, r)
		for p, c := range cols {
			acc -= vals[p] * offRead.Load(int(c))
		}
		s[r] = acc
		xv := locRead.Load(v.lo + r)
		xloc[r], x0[r] = xv, xv
	}
}

// publish writes the block's components xloc to rows lo, lo+1, ... of the
// iterate and returns the squared update norm Σ (xloc[r] − x0[r])², the
// input of the incremental residual estimate. The engines' own stores —
// the shared *AtomicVector and the simulated engine's sliceWriter — take a
// loop with the concrete Store inlined; every other writer (the f32
// rounding writer, shard and device writers) runs the valueWriter loop.
func publish(write valueWriter, lo int, xloc, x0 []float64) float64 {
	x0 = x0[:len(xloc)]
	var d2 float64
	switch w := write.(type) {
	case *AtomicVector:
		for r, nv := range xloc {
			w.Store(lo+r, nv)
			d := nv - x0[r]
			d2 += d * d
		}
	case sliceWriter:
		dst := w[lo : lo+len(xloc)]
		for r, nv := range xloc {
			dst[r] = nv
			d := nv - x0[r]
			d2 += d * d
		}
	default:
		for r, nv := range xloc {
			write.Store(lo+r, nv)
			d := nv - x0[r]
			d2 += d * d
		}
	}
	return d2
}

// runBlockKernelReference is the pre-staging two-step implementation:
// a gather pass picking the off-block entries out of the global CSR arrays,
// then k sweeps over the strided in-block segments with a per-entry
// diagonal branch. It is retained as the executable specification the
// fused kernel is property-tested against (bit-identical iterates), and as
// the fallback for matrices whose column indices exceed int32.
func runBlockKernelReference(a *sparse.CSR, sp *sparse.Splitting, b []float64, v *blockView,
	k int, rule *updateRule, offRead, locRead valueReader, write valueWriter, scr *kernelScratch) float64 {

	omega := rule.omega
	bs := v.hi - v.lo
	s := scr.s[:bs]
	xloc := scr.xloc[:bs]
	xnew := scr.xnew[:bs]
	x0 := scr.x0[:bs]

	// Off-block contribution, frozen for the local sweeps.
	for i := v.lo; i < v.hi; i++ {
		r := i - v.lo
		acc := b[i]
		for p := a.RowPtr[i]; p < v.inLo[r]; p++ {
			acc -= a.Val[p] * offRead.Load(a.ColIdx[p])
		}
		for p := v.inHi[r]; p < a.RowPtr[i+1]; p++ {
			acc -= a.Val[p] * offRead.Load(a.ColIdx[p])
		}
		s[r] = acc
		xv := locRead.Load(i)
		xloc[r] = xv
		x0[r] = xv
	}

	if rule.beta != 0 && rule.prev != nil {
		// Momentum sweeps, mirroring runBlockKernel's rotation exactly.
		beta := rule.beta
		xprev := scr.xprev[:bs]
		prev := rule.prev[v.lo:v.hi]
		copy(xprev, prev)
		for sweep := 0; sweep < k; sweep++ {
			for i := v.lo; i < v.hi; i++ {
				r := i - v.lo
				acc := s[r]
				for p := v.inLo[r]; p < v.inHi[r]; p++ {
					j := a.ColIdx[p]
					if j != i {
						acc -= a.Val[p] * xloc[j-v.lo]
					}
				}
				xnew[r] = (1-omega)*xloc[r] + omega*acc*sp.InvDiag[i] + beta*(xloc[r]-xprev[r])
			}
			xprev, xloc, xnew = xloc, xnew, xprev
		}
		storeMomentum(prev, xprev, rule.f32)
	} else {
		// k synchronous Jacobi sweeps on the subdomain.
		for sweep := 0; sweep < k; sweep++ {
			for i := v.lo; i < v.hi; i++ {
				r := i - v.lo
				acc := s[r]
				for p := v.inLo[r]; p < v.inHi[r]; p++ {
					j := a.ColIdx[p]
					if j != i {
						acc -= a.Val[p] * xloc[j-v.lo]
					}
				}
				xnew[r] = (1-omega)*xloc[r] + omega*acc*sp.InvDiag[i]
			}
			xloc, xnew = xnew, xloc
		}
	}

	// Publish the block's components to global memory.
	var d2 float64
	for i := v.lo; i < v.hi; i++ {
		r := i - v.lo
		nv := xloc[r]
		write.Store(i, nv)
		d := nv - x0[r]
		d2 += d * d
	}
	return d2
}
