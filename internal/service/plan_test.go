package service

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/vecmath"
)

func onesRHS(a interface {
	MulVec(y, x []float64)
	Dims() (int, int)
}) []float64 {
	r, c := a.Dims()
	b := make([]float64, r)
	a.MulVec(b, vecmath.Ones(c))
	return b
}

func TestFingerprint(t *testing.T) {
	a := mats.Poisson2D(10, 10)
	b := mats.Poisson2D(10, 10)
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical matrices should fingerprint identically")
	}
	c := mats.Poisson2D(10, 11)
	if Fingerprint(a) == Fingerprint(c) {
		t.Fatal("different matrices should fingerprint differently")
	}
	d := a.Clone()
	d.Val[0] += 1e-12
	if Fingerprint(a) == Fingerprint(d) {
		t.Fatal("a value perturbation must change the fingerprint")
	}
}

func TestPlanKeyNormalization(t *testing.T) {
	a := mats.Poisson2D(8, 8)
	k1 := KeyFor(a, core.Options{BlockSize: 16, LocalIters: 5})
	k2 := KeyFor(a, core.Options{BlockSize: 16, LocalIters: 5, Omega: 1})
	if k1 != k2 {
		t.Fatalf("Omega 0 and 1 should key identically: %v vs %v", k1, k2)
	}
	k3 := KeyFor(a, core.Options{BlockSize: 16, LocalIters: 5, ExactLocal: true})
	k4 := KeyFor(a, core.Options{BlockSize: 16, LocalIters: 9, ExactLocal: true})
	if k3 != k4 {
		t.Fatalf("LocalIters is irrelevant under ExactLocal: %v vs %v", k3, k4)
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	c := NewPlanCache(CacheConfig{})
	key := KeyFor(a, core.Options{BlockSize: 32, LocalIters: 5})

	p1, hit, err := c.GetOrBuild(a, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup must miss")
	}
	p2, hit, err := c.GetOrBuild(a, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second lookup must hit")
	}
	if p1 != p2 {
		t.Fatal("hit must return the same cached plan")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.Bytes != p1.Bytes || st.Bytes <= 0 {
		t.Fatalf("byte accounting %d, want %d > 0", st.Bytes, p1.Bytes)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	c := NewPlanCache(CacheConfig{MaxEntries: 2})
	keys := make([]PlanKey, 3)
	for i := range keys {
		keys[i] = KeyFor(a, core.Options{BlockSize: 16 << i, LocalIters: 5})
		if _, _, err := c.GetOrBuild(a, keys[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	// The LRU victim is the oldest key; the newer two remain.
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest key should have been evicted")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %v should still be cached", k)
		}
	}
	// Re-requesting the victim is a miss and evicts the next-oldest.
	if _, hit, err := c.GetOrBuild(a, keys[0], nil); err != nil || hit {
		t.Fatalf("evicted key must rebuild (hit=%t, err=%v)", hit, err)
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 entries / 2 evictions", st)
	}
}

func TestPlanCacheByteBudget(t *testing.T) {
	a := mats.Poisson2D(12, 12)
	// Two plan shapes (block sizes); the budget holds either one alone but
	// not both, so the second insertion evicts the first.
	blocks := []int{16, 32}
	var budget int64
	for _, bs := range blocks {
		probe, err := core.NewPlan(a, bs, false)
		if err != nil {
			t.Fatal(err)
		}
		budget = max(budget, probe.MemoryBytes()+64)
	}
	c := NewPlanCache(CacheConfig{MaxEntries: -1, MaxBytes: budget})
	for _, bs := range blocks {
		key := KeyFor(a, core.Options{BlockSize: bs, LocalIters: 5})
		if _, _, err := c.GetOrBuild(a, key, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 entry / 1 eviction under byte budget", st)
	}
	if st.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, budget)
	}
}

// TestPlanCacheConcurrentStorm hammers the cache from many goroutines with
// a small key set (run under -race in CI): every caller must observe the
// same plan pointer per key, and the counters must account every lookup.
func TestPlanCacheConcurrentStorm(t *testing.T) {
	a := mats.Poisson2D(16, 16)
	c := NewPlanCache(CacheConfig{MaxEntries: 8})
	const (
		goroutines = 16
		rounds     = 50
		numKeys    = 4
	)
	keys := make([]PlanKey, numKeys)
	for i := range keys {
		keys[i] = KeyFor(a, core.Options{BlockSize: 8 * (i + 1), LocalIters: 5})
	}

	var mu sync.Mutex
	seen := make(map[PlanKey]*Plan)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := keys[(g+r)%numKeys]
				p, _, err := c.GetOrBuild(a, key, nil)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if prev, ok := seen[key]; ok && prev != p {
					mu.Unlock()
					errs <- fmt.Errorf("key %v: two distinct plans observed", key)
					return
				}
				seen[key] = p
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*rounds)
	}
	if st.Misses < numKeys || st.Misses > goroutines*rounds/2 {
		t.Fatalf("misses = %d, want small (≥%d, far below lookup count)", st.Misses, numKeys)
	}
	if st.Entries != numKeys {
		t.Fatalf("entries = %d, want %d", st.Entries, numKeys)
	}
}

// TestCachedPlanBitIdenticalSolve is the acceptance check for plan reuse:
// a solve through a cache-hit plan must be bit-identical to a cold
// EngineSimulated solve of the same system.
func TestCachedPlanBitIdenticalSolve(t *testing.T) {
	a := mats.Poisson2D(20, 20)
	b := onesRHS(a)
	opt := core.Options{
		BlockSize:      64,
		LocalIters:     5,
		MaxGlobalIters: 800,
		Tolerance:      1e-10,
		Seed:           7,
		RecordHistory:  true,
	}
	cold, err := core.Solve(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}

	c := NewPlanCache(CacheConfig{})
	key := KeyFor(a, opt)
	if _, hit, err := c.GetOrBuild(a, key, nil); err != nil || hit {
		t.Fatalf("prime the cache: hit=%t err=%v", hit, err)
	}
	plan, hit, err := c.GetOrBuild(a, key, nil)
	if err != nil || !hit {
		t.Fatalf("warm lookup: hit=%t err=%v", hit, err)
	}
	warm, err := core.SolveWithPlan(plan.Prepared, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.GlobalIterations != cold.GlobalIterations || warm.Residual != cold.Residual {
		t.Fatalf("warm (%d iters, %v) != cold (%d iters, %v)",
			warm.GlobalIterations, warm.Residual, cold.GlobalIterations, cold.Residual)
	}
	for i := range cold.X {
		if warm.X[i] != cold.X[i] {
			t.Fatalf("x[%d]: warm %v != cold %v (not bit-identical)", i, warm.X[i], cold.X[i])
		}
	}
	for i := range cold.History {
		if warm.History[i] != cold.History[i] {
			t.Fatalf("history[%d]: warm %v != cold %v", i, warm.History[i], cold.History[i])
		}
	}
}
