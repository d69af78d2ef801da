package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/certify"
	"repro/internal/sched"
	"repro/internal/sparse"
)

// Plan is the precomputed per-matrix state of a block-asynchronous solve:
// the block partition, the per-block CSR views, the Jacobi splitting
// (inverse diagonal), and — when the plan is built for exact local solves —
// one dense LU factorization per subdomain.
//
// Building these artifacts is the expensive "setup" half of a solve; the
// iteration itself reuses them unchanged. A Plan is immutable after NewPlan
// and safe for concurrent use by any number of SolveWithPlan calls, so a
// long-running process (see internal/service) can pay the setup cost once
// per matrix/configuration and amortize it across requests — the paper's
// observation that local work "almost comes for free" once the subdomain
// state is resident, applied to the host side.
type Plan struct {
	a          *sparse.CSR
	sp         *sparse.Splitting
	part       sparse.BlockPartition
	views      []blockView
	factors    *blockFactors // non-nil iff exactLocal
	blockSize  int
	exactLocal bool
	maxBlock   int  // rows of the largest block (kernel scratch sizing)
	staged     bool // packed kernel staging built (see buildBlockViews)

	// kernel is the resolved sweep-kernel dispatch (see kernel_dispatch.go);
	// stencil carries the matrix-free kernel's data when kernel is
	// KernelStencil, and the SELL layout hangs off each blockView.
	kernel  KernelKind
	stencil *stencilData

	// Scratch pools: solves borrow their kernel and per-iteration buffers
	// here instead of allocating, so a warm plan runs its steady-state
	// global iterations with zero heap allocations (test-enforced in
	// alloc_test.go). The pools are keyed to this plan's dimensions.
	kernelPool sync.Pool // *kernelScratch, sized maxBlock
	iterPool   sync.Pool // *iterScratch, sized (rows, numBlocks)
}

// iterScratch is the per-solve working set of the barrier engines: the
// schedule order, dispatch-list and stale-mask buffers, the
// iteration-start snapshot and the residual scratch vector.
type iterScratch struct {
	order  []int
	events []sched.Event
	stale  []bool
	snap   []float64
	resid  []float64
}

func (p *Plan) getKernelScratch() *kernelScratch {
	return p.kernelPool.Get().(*kernelScratch)
}

func (p *Plan) putKernelScratch(s *kernelScratch) { p.kernelPool.Put(s) }

func (p *Plan) getIterScratch() *iterScratch {
	return p.iterPool.Get().(*iterScratch)
}

func (p *Plan) putIterScratch(s *iterScratch) { p.iterPool.Put(s) }

// kernelFor selects the block kernel implementation: the plan's resolved
// dispatch (matrix-free stencil, SELL-C, or the fused packed-CSR hot path)
// when the plan carries packed views, the reference two-step path otherwise
// (or when a test pins it via Options.referenceKernel). All of them produce
// bit-identical iterates, so every engine, replay and shard path runs any
// dispatch unchanged.
func (p *Plan) kernelFor(reference bool) kernelFunc {
	if !p.staged || reference {
		return runBlockKernelReference
	}
	switch p.kernel {
	case KernelStencil:
		return p.runBlockKernelStencil
	case KernelSELL:
		return runBlockKernelSELL
	}
	return runBlockKernel
}

// NewPlan precomputes the per-matrix artifacts for the given block size.
// When exactLocal is set the subdomain LU factors for Options.ExactLocal
// are also built (the dominant setup cost, O(numBlocks·blockSize³)).
// The sweep kernel is auto-dispatched: constant-coefficient stencil
// structure, when detected, takes the matrix-free fast path; use
// NewPlanWithConfig to pin a kernel or declare the stencil.
func NewPlan(a *sparse.CSR, blockSize int, exactLocal bool) (*Plan, error) {
	return NewPlanWithConfig(a, blockSize, exactLocal, PlanConfig{})
}

// NewPlanWithConfig is NewPlan with an explicit kernel selection (see
// PlanConfig). Plans differing only in kernel produce bit-identical
// iterates; the config is purely a performance choice.
func NewPlanWithConfig(a *sparse.CSR, blockSize int, exactLocal bool, cfg PlanConfig) (*Plan, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("core: matrix must be square, have %dx%d", a.Rows, a.Cols)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("core: BlockSize must be positive, have %d", blockSize)
	}
	sp, err := sparse.NewSplitting(a)
	if err != nil {
		return nil, err
	}
	part := sparse.NewBlockPartition(a.Rows, blockSize)
	views, staged := buildBlockViews(a, part)
	p := &Plan{
		a:          a,
		sp:         sp,
		part:       part,
		views:      views,
		blockSize:  blockSize,
		exactLocal: exactLocal,
		staged:     staged,
	}
	for bi := 0; bi < part.NumBlocks(); bi++ {
		if s := part.Size(bi); s > p.maxBlock {
			p.maxBlock = s
		}
	}
	if exactLocal {
		if p.factors, err = buildBlockFactors(a, part, views); err != nil {
			return nil, err
		}
	}
	if err := p.resolveKernel(cfg); err != nil {
		return nil, err
	}
	maxBlock, rows, nb := p.maxBlock, a.Rows, part.NumBlocks()
	p.kernelPool.New = func() any { return newKernelScratch(maxBlock) }
	p.iterPool.New = func() any {
		return &iterScratch{
			order:  make([]int, nb),
			events: make([]sched.Event, 0, nb),
			stale:  make([]bool, nb),
			snap:   make([]float64, rows),
			resid:  make([]float64, rows),
		}
	}
	return p, nil
}

// Matrix returns the matrix the plan was built for (not a copy; the caller
// must not mutate it while the plan is alive).
func (p *Plan) Matrix() *sparse.CSR { return p.a }

// BlockSize returns the subdomain size the plan was built with.
func (p *Plan) BlockSize() int { return p.blockSize }

// ExactLocal reports whether the plan carries subdomain LU factors.
func (p *Plan) ExactLocal() bool { return p.exactLocal }

// NumBlocks returns the number of subdomains.
func (p *Plan) NumBlocks() int { return p.part.NumBlocks() }

// Partition returns the plan's block partition.
func (p *Plan) Partition() sparse.BlockPartition { return p.part }

// MemoryBytes estimates the resident size of the plan, including the
// matrix it retains, the splitting, the block views and any LU factors.
// Cache implementations use it for size accounting.
func (p *Plan) MemoryBytes() int64 {
	const w = 8 // bytes per int/float64 on the targeted 64-bit platforms
	n := int64(p.a.Rows)
	sz := w * int64(len(p.a.RowPtr)+len(p.a.ColIdx)+len(p.a.Val)) // CSR
	sz += 2 * w * n                                               // Splitting: InvDiag + Diag
	sz += w * int64(len(p.part.Starts))
	if p.stencil != nil {
		sz += p.stencil.memoryBytes()
	}
	for _, v := range p.views {
		sz += v.memoryBytes()
	}
	if p.factors != nil {
		for bi := 0; bi < p.part.NumBlocks(); bi++ {
			bs := int64(p.part.Size(bi))
			sz += w*bs*bs + w*bs // packed LU + pivot vector
		}
	}
	return sz
}

// SolveWithPlan runs async-(k) relaxation reusing the prepared plan instead
// of rebuilding the per-matrix state. opt.BlockSize may be zero (it is then
// taken from the plan); a non-zero value must match the plan, as must
// opt.ExactLocal. See Solve for the one-shot entry point.
func SolveWithPlan(p *Plan, b []float64, opt Options) (Result, error) {
	opt, err := planOptions(p, b, opt)
	if err != nil {
		return Result{}, err
	}
	var cert *certify.Certificate
	if opt.Certify != certify.ModeOff {
		c, err := certify.Certify(p.a, opt.CertifyOptions)
		if err != nil {
			return Result{}, fmt.Errorf("core: admission certification: %w", err)
		}
		cert = &c
		if opt.Certify == certify.ModeEnforce && c.Verdict == certify.VerdictDiverges {
			return Result{Certificate: cert}, fmt.Errorf("core: admission refused (%s): %w", c.Reason, certify.ErrDivergent)
		}
	}
	if opt.Metrics != nil {
		defer func(start time.Time) {
			opt.Metrics.observeSolve(opt.Engine.String(), time.Since(start))
		}(time.Now())
	}
	res, err := func() (Result, error) {
		switch opt.Engine {
		case EngineSimulated:
			return solveSimulated(p, b, opt)
		case EngineGoroutine:
			return solveGoroutine(p, b, opt)
		default:
			return Result{}, fmt.Errorf("core: unknown engine %v", opt.Engine)
		}
	}()
	res.Certificate = cert
	return res, err
}

// planOptions checks opt against the plan — a zero BlockSize is taken from
// it, a non-zero one and ExactLocal must match — then fills the defaults
// and validates.
func planOptions(p *Plan, b []float64, opt Options) (Options, error) {
	if opt.BlockSize == 0 {
		opt.BlockSize = p.blockSize
	}
	if opt.BlockSize != p.blockSize {
		return opt, fmt.Errorf("core: Options.BlockSize %d does not match plan block size %d",
			opt.BlockSize, p.blockSize)
	}
	if opt.ExactLocal != p.exactLocal {
		return opt, fmt.Errorf("core: Options.ExactLocal %v does not match plan (exact local %v)",
			opt.ExactLocal, p.exactLocal)
	}
	opt = opt.withDefaults()
	return opt, opt.validate(p.a, b)
}

// ctxErr reports a wrapped ErrCanceled when ctx is done; engines call it
// before every block execution (and at every global-iteration boundary),
// so cancellation latency is bounded by one block sweep, not one global
// iteration. A nil ctx never cancels.
func ctxErr(ctx context.Context, iter int) error {
	if ctx == nil {
		return nil
	}
	if cause := ctx.Err(); cause != nil {
		return fmt.Errorf("%w after %d global iterations: %w", ErrCanceled, iter, cause)
	}
	return nil
}
