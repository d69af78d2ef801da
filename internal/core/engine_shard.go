package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/sparse"
)

// Shard describes one executor shard: a contiguous run of plan blocks and
// the iterate rows they cover. The multi-device executor maps one shard per
// GPU, the cluster executor one shard per node.
type Shard struct {
	// Index is the shard's position in [0, Shards).
	Index int
	// BlockLo and BlockHi bound the shard's plan blocks, [BlockLo, BlockHi).
	BlockLo, BlockHi int
	// RowLo and RowHi bound the iterate rows the shard owns, [RowLo, RowHi).
	RowLo, RowHi int
}

// ShardViewProvider realizes a substrate's staleness structure for the
// sharded executor: per shard and global iteration it supplies the
// IterateView the shard's off-shard reads go through, and a publication
// point where the shard's freshly written rows become visible to the
// exchange medium (host copies, a delay ring, ...). Rows the shard itself
// owns are always read live; only off-shard components route through the
// view.
//
// Call discipline (what implementations may rely on): Bind once before any
// iteration; View(s, iter) at most once per shard per iteration, from the
// goroutine executing shard s, before any of its blocks run; Publish(s,
// iter) exactly once per shard per iteration — even for shards skipped via
// ShardOptions.SkipShard — after the shard's blocks finished. Iterations
// are separated by a barrier, so all calls for iteration i happen before
// any call for iteration i+1.
type ShardViewProvider interface {
	// Bind hands the provider the live iterate and the shard layout before
	// the first iteration.
	Bind(x *AtomicVector, shards []Shard)
	// View returns the IterateView for shard's off-shard reads during
	// global iteration iter (1-based); nil selects live reads.
	View(shard, iter int) IterateView
	// Publish marks the end of shard's iteration iter: its rows in the
	// live iterate are final for this iteration and may be copied out.
	Publish(shard, iter int)
}

// ShardOptions configures the sharded executor on top of Options.
type ShardOptions struct {
	// Shards is the number of shards (devices, nodes). Required in
	// [1, plan blocks]: each shard needs at least one block.
	Shards int
	// Sequential executes the shards' blocks on one goroutine in the
	// global dispatch order instead of one goroutine per shard. With a
	// fixed Seed and live views this is deterministic — the equivalence
	// anchor the tests compare the concurrent paths against.
	Sequential bool
	// Provider supplies the off-shard read views; nil means all shards
	// read the live iterate (pure work partitioning, no staleness beyond
	// the execution races).
	Provider ShardViewProvider
	// SkipShard, if non-nil, is consulted once per shard per global
	// iteration; returning true skips all the shard's blocks for that
	// iteration (a dead or slow device). The shard still publishes, so
	// its last-written values keep circulating.
	SkipShard func(iter, shard int) bool
}

// SolveSharded runs async-(k) relaxation partitioned into shards: each
// shard executes its blocks (concurrently per shard by default), reading
// off-shard components through the provider's views and publishing its rows
// at the end of every global iteration. It is the execution substrate the
// multi-device (internal/multigpu) and cluster (internal/cluster) executors
// are built on: with one shard — or live views — it degenerates to exactly
// the goroutine engine's iteration, which the equivalence tests exploit.
//
// opt follows the SolveWithPlan contract (BlockSize/ExactLocal must match
// the plan); Options.Replay is not supported — replay a sharded capture
// through the simulated or goroutine engine.
func SolveSharded(p *Plan, b []float64, opt Options, so ShardOptions) (Result, error) {
	opt, err := planOptions(p, b, opt)
	if err != nil {
		return Result{}, err
	}
	if opt.Replay != nil {
		return Result{}, fmt.Errorf("core: the sharded executor does not replay schedules; replay a sharded capture through the simulated or goroutine engine")
	}
	nb := p.NumBlocks()
	if so.Shards <= 0 {
		return Result{}, fmt.Errorf("core: ShardOptions.Shards must be positive, have %d", so.Shards)
	}
	if so.Shards > nb {
		return Result{}, fmt.Errorf("core: %d shards over %d blocks: need at least one block per shard (reduce BlockSize)",
			so.Shards, nb)
	}
	if opt.Metrics != nil {
		defer func(start time.Time) {
			opt.Metrics.observeSolve("sharded", time.Since(start))
		}(time.Now())
	}
	r := newBarrier(p, b, opt, "sharded", true)
	defer r.done()
	sh := newShardSet(p.part, so, r.ax)
	if opt.Record != nil {
		opt.Record.SetMeta(barrierMeta("sharded", nb, so.Shards, opt))
	}
	r.sched = newChaoticScheduler(opt, r.em, nb, r.is)
	if so.Sequential {
		// Sequential execution keeps the global dispatch order across shard
		// boundaries — with live views exactly the goroutine engine's
		// one-worker execution.
		r.shards = sh
		return runBarrier(r, r.runInline)
	}
	sp := startShardPool(r, sh)
	defer sp.stop()
	return runBarrier(r, sp.iterate)
}

// makeShards splits the plan's blocks into ns contiguous shards of
// near-equal block count (the first nb%ns shards take one extra block).
func makeShards(part sparse.BlockPartition, ns int) []Shard {
	nb := part.NumBlocks()
	base, rem := nb/ns, nb%ns
	shards := make([]Shard, ns)
	lo := 0
	for s := range shards {
		hi := lo + base
		if s < rem {
			hi++
		}
		shards[s] = Shard{
			Index: s, BlockLo: lo, BlockHi: hi,
			RowLo: part.Starts[lo], RowHi: part.Starts[hi],
		}
		lo = hi
	}
	return shards
}

// shardView composes a shard's read semantics: rows the shard owns read
// live from the shared iterate, everything else through the provider's
// off-shard view. A block's own rows lie in its shard, so its local
// starting values always read live.
type shardView struct {
	lo, hi int
	live   *AtomicVector
	off    IterateView
}

func (v *shardView) Load(j int) float64 {
	if j >= v.lo && j < v.hi {
		return v.live.Load(j)
	}
	return v.off.Load(j)
}

// shardSet is the shard layout of a sharded solve and each shard's lane:
// its state for the running iteration and the provider's view and
// publication points.
type shardSet struct {
	so         ShardOptions
	shards     []Shard
	blockShard []int
	lanes      []shardLane
}

// shardLane is one shard's state for the running iteration. order and skip
// are written by the solve's goroutine before the shard runs (the channel
// send orders the accesses); view and read belong to whichever goroutine
// executes the shard.
type shardLane struct {
	order []sched.Event // the shard's blocks, in global dispatch order
	skip  bool
	view  shardView
	read  IterateView
}

func newShardSet(part sparse.BlockPartition, so ShardOptions, x *AtomicVector) *shardSet {
	sh := &shardSet{
		so:         so,
		shards:     makeShards(part, so.Shards),
		blockShard: make([]int, part.NumBlocks()),
		lanes:      make([]shardLane, so.Shards),
	}
	for s, shd := range sh.shards {
		for bi := shd.BlockLo; bi < shd.BlockHi; bi++ {
			sh.blockShard[bi] = s
		}
		sh.lanes[s] = shardLane{
			order: make([]sched.Event, 0, shd.BlockHi-shd.BlockLo),
			view:  shardView{lo: shd.RowLo, hi: shd.RowHi, live: x},
		}
	}
	if so.Provider != nil {
		so.Provider.Bind(x, sh.shards)
	}
	return sh
}

// begin starts iteration iter: it clears every lane and consults
// SkipShard; with views set it also fetches each running shard's view up
// front, as sequential execution needs before its first block.
func (sh *shardSet) begin(iter int, views bool) {
	for s := range sh.lanes {
		l := &sh.lanes[s]
		l.order = l.order[:0]
		l.skip = sh.so.SkipShard != nil && sh.so.SkipShard(iter, s)
		l.read = nil
		if views && !l.skip {
			l.read = sh.view(s, iter)
		}
	}
}

// view composes shard s's reader for iteration iter; nil selects live
// reads throughout.
func (sh *shardSet) view(s, iter int) IterateView {
	if sh.so.Provider == nil {
		return nil
	}
	v := sh.so.Provider.View(s, iter)
	if v == nil {
		return nil
	}
	l := &sh.lanes[s]
	l.view.off = v
	return &l.view
}

func (sh *shardSet) publish(s, iter int) {
	if sh.so.Provider != nil {
		sh.so.Provider.Publish(s, iter)
	}
}

// shardPool is the shards executor: one persistent goroutine per shard
// runs the shard's blocks of each iteration in global dispatch order
// through its lane's view, then publishes; the WaitGroup is the
// end-of-iteration barrier.
type shardPool struct {
	r     *barrier
	sh    *shardSet
	work  []chan int
	delta atomicFloat // Σ‖Δx_J‖₂² of the running iteration
	wg    sync.WaitGroup
	done  sync.WaitGroup
}

func startShardPool(r *barrier, sh *shardSet) *shardPool {
	sp := &shardPool{r: r, sh: sh, work: make([]chan int, len(sh.lanes))}
	sp.done.Add(len(sp.work))
	for s := range sp.work {
		sp.work[s] = make(chan int)
		go func() {
			defer sp.done.Done()
			scr := r.p.getKernelScratch()
			defer r.p.putKernelScratch(scr)
			for iter := range sp.work[s] {
				sp.runShard(s, iter, scr)
				sp.wg.Done()
			}
		}()
	}
	return sp
}

func (sp *shardPool) iterate(iter int, evs []sched.Event) (float64, error) {
	sh := sp.sh
	sp.delta.reset()
	sh.begin(iter, false)
	for _, e := range evs {
		l := &sh.lanes[sh.blockShard[e.Block]]
		l.order = append(l.order, e)
	}
	sp.wg.Add(len(sp.work))
	for _, c := range sp.work {
		c <- iter
	}
	sp.wg.Wait()
	return sp.delta.load(), nil
}

// runShard is one shard's iteration on its own goroutine.
func (sp *shardPool) runShard(s, iter int, scr *kernelScratch) {
	r, l := sp.r, &sp.sh.lanes[s]
	if !l.skip {
		read := sp.sh.view(s, iter)
		for i := range l.order {
			if r.canceled() {
				break
			}
			if r.skipBlock(iter, int(l.order[i].Block)) {
				continue
			}
			// Exact local solves cannot fail here; see startBlockPool.
			d2, _ := r.exec(iter, &l.order[i], s, read, scr)
			sp.delta.add(d2)
		}
	}
	sp.sh.publish(s, iter)
}

func (sp *shardPool) stop() {
	for _, c := range sp.work {
		close(c)
	}
	sp.done.Wait()
}
