package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mats"
	"repro/internal/sparse"
)

// viewOnly and writerOnly hide a reader's or writer's dynamic type, so the
// staged kernels' gather and publish run their interface loops.
type viewOnly struct{ IterateView }
type writerOnly struct{ valueWriter }

// fastPathRun is what one block execution leaves behind.
type fastPathRun struct {
	x, prev []float64
	d2      float64
	draws   []float64 // the racing reader's next draws (mixReader runs only)
}

// TestFastPathBitIdentical runs single block executions of every staged
// kernel twice from the same state: once as the engines call them, with
// the concrete iterate store the gather and publish special-case, and once
// with the store behind wrappers that force the IterateView/valueWriter
// loops. The published iterate, the returned squared update norm, the
// momentum trail and, for the racing reader, the RNG position must agree
// bit for bit — the fast paths may not change a value or a coin.
func TestFastPathBitIdentical(t *testing.T) {
	kernels := []struct {
		name string
		a    *sparse.CSR
		bs   int
		kind KernelKind
	}{
		{"csr-trefethen", mats.Trefethen(300), 64, KernelCSR},
		{"stencil-fvtiled", mats.FVTiled(40, 24, 1.368), 128, KernelStencil},
		{"stencil-poisson", mats.Poisson2D(24, 25), 96, KernelStencil},
	}
	rules := []struct {
		name string
		kind RuleKind
		beta float64
	}{{"jacobi", RuleJacobi, 0}, {"richardson2", RuleRichardson2, 0.3}}
	for _, kc := range kernels {
		p := planForKernel(t, kc.a, kc.bs, kc.kind)
		kern := p.kernelFor(false)
		b := make([]float64, kc.a.Rows)
		for i := range b {
			b[i] = 1 + float64(i%7)/5
		}
		for _, rc := range rules {
			for _, prec := range []string{PrecF64, PrecF32} {
				for _, store := range []string{"atomic", "mix"} {
					name := fmt.Sprintf("%s/%s/%s/%s", kc.name, rc.name, prec, store)
					t.Run(name, func(t *testing.T) {
						for bi := range p.views {
							run := func(forceInterface bool) fastPathRun {
								return runOneBlock(p, kern, b, bi, rc.kind, rc.beta, prec, store, forceInterface)
							}
							requireSameRun(t, bi, run(false), run(true))
						}
					})
				}
			}
		}
	}
}

// runOneBlock executes block bi once from a fixed seeded state: a live
// iterate, a different snapshot, a momentum trail, NaN-poisoned scratch.
func runOneBlock(p *Plan, kern kernelFunc, b []float64, bi int, rule RuleKind, beta float64,
	prec, store string, forceInterface bool) fastPathRun {

	n := p.a.Rows
	rng := rand.New(rand.NewSource(int64(41 + bi)))
	x, snap, trail := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], snap[i], trail[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	roundIterate(prec, x)
	roundIterate(prec, snap)
	ur := newUpdateRule(rule, 0.9, beta, prec, x, trail)

	scr := newKernelScratch(p.views[0].hi - p.views[0].lo)
	for _, buf := range [][]float64{scr.s, scr.xloc, scr.xnew, scr.x0, scr.xprev} {
		for i := range buf {
			buf[i] = math.NaN()
		}
	}

	var (
		read   IterateView
		write  valueWriter
		mix    *mixReader
		result func() []float64
	)
	switch store {
	case "atomic":
		av := NewAtomicVector(x)
		read, write, result = av, av, av.Snapshot
	case "mix":
		mix = &mixReader{live: x, snap: snap, rng: rand.New(rand.NewSource(raceSeed(int64(7 + bi))))}
		read, write = mix, sliceWriter(x)
		result = func() []float64 { return x }
	}
	write = iterateWriter(prec, write)
	if forceInterface {
		read, write = viewOnly{read}, writerOnly{write}
	}
	out := fastPathRun{d2: kern(p.a, p.sp, b, &p.views[bi], 3, ur, read, read, write, scr)}
	out.x, out.prev = result(), ur.prev
	if mix != nil {
		for i := 0; i < 8; i++ {
			out.draws = append(out.draws, mix.rng.Float64())
		}
	}
	return out
}

func requireSameRun(t *testing.T, bi int, fast, slow fastPathRun) {
	t.Helper()
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("block %d: %s lengths %d and %d", bi, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("block %d: %s[%d]: fast path %v, interface path %v", bi, what, i, a[i], b[i])
			}
		}
	}
	same("x", fast.x, slow.x)
	same("momentum trail", fast.prev, slow.prev)
	same("next draws", fast.draws, slow.draws)
	if math.Float64bits(fast.d2) != math.Float64bits(slow.d2) || math.IsNaN(fast.d2) {
		t.Fatalf("block %d: d² fast path %v, interface path %v", bi, fast.d2, slow.d2)
	}
}
