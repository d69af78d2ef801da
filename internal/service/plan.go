package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Fingerprint returns a stable content hash of the matrix (dimensions,
// structure and values), used as the matrix part of a PlanKey. Two CSR
// matrices have equal fingerprints iff they are entry-wise identical.
func Fingerprint(a *sparse.CSR) string {
	h := sha256.New()
	// The little-endian words are staged through a fixed buffer: one
	// h.Write per 8-byte word costs about as much as hashing it. The digest
	// is that of the same byte stream.
	var buf [4096]byte
	n := 0
	put := func(v uint64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	put(uint64(a.Rows))
	put(uint64(a.Cols))
	for _, p := range a.RowPtr {
		put(uint64(p))
	}
	for _, c := range a.ColIdx {
		put(uint64(c))
	}
	for _, v := range a.Val {
		put(math.Float64bits(v))
	}
	h.Write(buf[:n])
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// PlanKey identifies one cacheable plan: a matrix (by fingerprint) plus
// the option subset that shapes the precomputed artifacts. The solver
// configuration a plan serves — local iterations, ω, update rule and β —
// is not part of it: core.Plan holds none of them, so every configuration
// of one shape shares one plan. /statsz counts solves per kernel and per
// method, not per plan.
type PlanKey struct {
	Fingerprint string
	BlockSize   int
	ExactLocal  bool
	// Kernel is the requested sweep-kernel dispatch. KernelAuto and an
	// explicit kind are distinct keys even when auto-detection resolves to
	// the same kernel — the key records what was asked, the plan what was
	// built.
	Kernel core.KernelKind
	// Stencil is the canonical rendering of a request-declared stencil spec
	// ("" when none declared). Declared specs shape the plan's kernel data,
	// so they are part of plan identity — and the canonical string keeps the
	// key comparable while letting build reconstruct the spec.
	Stencil string
}

// String renders the key compactly for logs.
func (k PlanKey) String() string {
	s := fmt.Sprintf("%s/bs%d/exact=%t/kernel=%s", k.Fingerprint, k.BlockSize, k.ExactLocal, k.Kernel)
	if k.Stencil != "" {
		s += "/stencil=" + k.Stencil
	}
	return s
}

// stencilKey canonically encodes a declared stencil spec for plan identity:
// "offset:coeff" pairs joined by commas, coefficients in Go's shortest
// exactly-round-tripping decimal form. parseStencilKey inverts it.
func stencilKey(sp *sparse.StencilSpec) string {
	if sp == nil {
		return ""
	}
	var b strings.Builder
	for p, d := range sp.Offsets {
		if p > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d:%s", d, strconv.FormatFloat(sp.Coeffs[p], 'g', -1, 64))
	}
	return b.String()
}

// parseStencilKey reconstructs the spec a stencilKey encoded ("" → nil).
func parseStencilKey(s string) (*sparse.StencilSpec, error) {
	if s == "" {
		return nil, nil
	}
	var sp sparse.StencilSpec
	for _, pair := range strings.Split(s, ",") {
		off, coeff, ok := strings.Cut(pair, ":")
		if !ok {
			return nil, fmt.Errorf("service: malformed stencil key entry %q", pair)
		}
		d, err := strconv.Atoi(off)
		if err != nil {
			return nil, fmt.Errorf("service: malformed stencil key offset %q: %w", off, err)
		}
		v, err := strconv.ParseFloat(coeff, 64)
		if err != nil {
			return nil, fmt.Errorf("service: malformed stencil key coefficient %q: %w", coeff, err)
		}
		sp.Offsets = append(sp.Offsets, d)
		sp.Coeffs = append(sp.Coeffs, v)
	}
	return &sp, nil
}

// Plan is one cached entry: the core solve plan with its estimated
// resident size.
type Plan struct {
	Key      PlanKey
	Prepared *core.Plan
	// Bytes is the estimated resident size used for LRU accounting.
	Bytes int64
}

// CacheConfig configures a PlanCache. Zero values select the defaults.
type CacheConfig struct {
	// MaxEntries bounds the number of cached plans (default 64; negative
	// means unlimited).
	MaxEntries int
	// MaxBytes bounds the summed Plan.Bytes (0 = unlimited). The most
	// recently used entry is never evicted, so a single plan larger than
	// MaxBytes still caches (and is evicted by the next insertion).
	MaxBytes int64
	// AnalyzeSpectrum fills a solve job's Analysis advice from the
	// matrix's convergence certificate — the admission certificate when
	// the job has one, else one certification per fingerprint from the
	// certificate cache (see certify.go). Skipped when false.
	AnalyzeSpectrum bool
	// SpectralSteps bounds the Lanczos effort of the §4.2 τ advice, which
	// runs only on a Diverges verdict (default 32).
	SpectralSteps int
	// Seed drives the certifier, the tuner and the τ estimate (default 1).
	Seed int64
}

func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxEntries == 0 {
		c.MaxEntries = 64
	}
	if c.SpectralSteps == 0 {
		c.SpectralSteps = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before the first lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanCache is a concurrency-safe LRU cache of solve plans. Concurrent
// GetOrBuild calls for the same missing key coalesce into a single build
// (the waiters count as hits: they reuse the builder's work).
type PlanCache struct {
	cfg CacheConfig

	mu       sync.Mutex
	ll       *list.List // of *Plan; front = most recently used
	items    map[PlanKey]*list.Element
	inflight map[PlanKey]*planBuild
	bytes    int64
	hits     uint64
	misses   uint64
	evicted  uint64

	// tune caches auto-tune outcomes by matrix fingerprint (see tune.go);
	// it has its own lock so a long parameter search never blocks plan
	// lookups.
	tune *tuningCache
	// cert caches admission certificates by matrix fingerprint (see
	// certify.go); like tune it has its own lock, and its LRU entry bound
	// mirrors the plan cache's MaxEntries.
	cert *certCache
}

// planBuild coalesces concurrent builds of one key.
type planBuild struct {
	done chan struct{}
	plan *Plan
	err  error
}

// NewPlanCache creates an empty cache.
func NewPlanCache(cfg CacheConfig) *PlanCache {
	cfg = cfg.withDefaults()
	return &PlanCache{
		cfg:      cfg,
		ll:       list.New(),
		items:    make(map[PlanKey]*list.Element),
		inflight: make(map[PlanKey]*planBuild),
		tune:     newTuningCache(),
		cert:     newCertCache(cfg.MaxEntries),
	}
}

// KeyFor derives the PlanKey of a matrix/option pair with the automatic
// kernel dispatch. Only the plan-shaping options (BlockSize, ExactLocal)
// enter the key.
func KeyFor(a *sparse.CSR, opt core.Options) PlanKey {
	return KeyForKernel(a, opt, core.KernelAuto)
}

// KeyForKernel is KeyFor with an explicit sweep-kernel dispatch.
func KeyForKernel(a *sparse.CSR, opt core.Options, kernel core.KernelKind) PlanKey {
	return keyWithFingerprint(Fingerprint(a), opt, kernel, nil)
}

func keyWithFingerprint(fp string, opt core.Options, kernel core.KernelKind, stencil *sparse.StencilSpec) PlanKey {
	return PlanKey{
		Fingerprint: fp,
		BlockSize:   opt.BlockSize,
		ExactLocal:  opt.ExactLocal,
		Kernel:      kernel,
		Stencil:     stencilKey(stencil),
	}
}

// GetOrBuild returns the cached plan for key, building it from a on a
// miss. hit reports whether the caller reused existing (or in-flight)
// work. The matrix must match the key's fingerprint; this is the caller's
// contract, not re-verified here (fingerprinting costs a full pass).
func (c *PlanCache) GetOrBuild(a *sparse.CSR, key PlanKey) (plan *Plan, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		p := el.Value.(*Plan)
		c.mu.Unlock()
		return p, true, nil
	}
	if b, ok := c.inflight[key]; ok {
		c.hits++
		c.mu.Unlock()
		<-b.done
		if b.err != nil {
			return nil, true, b.err
		}
		return b.plan, true, nil
	}
	c.misses++
	b := &planBuild{done: make(chan struct{})}
	c.inflight[key] = b
	c.mu.Unlock()

	b.plan, b.err = c.build(a, key)

	c.mu.Lock()
	delete(c.inflight, key)
	if b.err == nil {
		c.insertLocked(key, b.plan)
	}
	c.mu.Unlock()
	close(b.done)
	return b.plan, false, b.err
}

// Get returns the cached plan without building, not counting a hit or
// miss. Intended for introspection and tests.
func (c *PlanCache) Get(key PlanKey) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*Plan), true
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evicted,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}

// build constructs the plan outside the cache lock.
func (c *PlanCache) build(a *sparse.CSR, key PlanKey) (*Plan, error) {
	spec, err := parseStencilKey(key.Stencil)
	if err != nil {
		return nil, err
	}
	prepared, err := core.NewPlanWithConfig(a, key.BlockSize, key.ExactLocal, core.PlanConfig{Kernel: key.Kernel, Stencil: spec})
	if err != nil {
		return nil, fmt.Errorf("service: building plan %v: %w", key, err)
	}
	return &Plan{Key: key, Prepared: prepared, Bytes: prepared.MemoryBytes()}, nil
}

// insertLocked adds the freshly built plan and evicts from the LRU tail
// while over budget. Callers hold c.mu.
func (c *PlanCache) insertLocked(key PlanKey, p *Plan) {
	if el, ok := c.items[key]; ok {
		// A concurrent build already inserted the key (cannot happen with
		// the in-flight coalescing, but stay safe): keep the existing one.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(p)
	c.bytes += p.Bytes
	for c.overBudgetLocked() && c.ll.Len() > 1 {
		back := c.ll.Back()
		victim := back.Value.(*Plan)
		c.ll.Remove(back)
		delete(c.items, victim.Key)
		c.bytes -= victim.Bytes
		c.evicted++
	}
}

func (c *PlanCache) overBudgetLocked() bool {
	if c.cfg.MaxEntries > 0 && c.ll.Len() > c.cfg.MaxEntries {
		return true
	}
	return c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes
}
