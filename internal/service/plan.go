package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/sparse"
	"repro/internal/tune"
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
	// so they are part of plan identity; the string keeps the key
	// comparable.
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
// exactly-round-tripping decimal form.
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
	// MaxEntries bounds each per-matrix cache: plans, certificates,
	// tunings and the service's named matrices (default 64; negative means
	// unlimited).
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
}

const (
	// analysisSeed drives the certifier, the tuner and the τ estimate, so
	// every request of a matrix resolves to the same cached outcome.
	analysisSeed = 1
	// tauSteps bounds the Lanczos effort of the §4.2 τ advice, which runs
	// only on a Diverges verdict.
	tauSteps = 32
)

func (c CacheConfig) withDefaults() CacheConfig {
	if c.MaxEntries == 0 {
		c.MaxEntries = 64
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

// PlanCache holds the per-matrix caches: solve plans keyed by shape, and
// auto-tune outcomes (tune.go) and admission certificates (certify.go)
// keyed by fingerprint. Each is a concurrency-safe LRU whose concurrent
// misses of one key coalesce into a single computation, so a long
// parameter search never blocks plan lookups.
type PlanCache struct {
	cfg     CacheConfig
	plans   *memo.Cache[PlanKey, *Plan]
	tunings *memo.Cache[string, tune.Result]
	certs   *memo.Cache[string, certify.Certificate]
	// probes counts every probe solve the tuning searches ran.
	probes atomic.Uint64
}

// NewPlanCache creates an empty cache.
func NewPlanCache(cfg CacheConfig) *PlanCache {
	cfg = cfg.withDefaults()
	return &PlanCache{
		cfg:     cfg,
		plans:   memo.New[PlanKey, *Plan](cfg.MaxEntries, cfg.MaxBytes, func(p *Plan) int64 { return p.Bytes }),
		tunings: memo.New[string, tune.Result](cfg.MaxEntries, 0, nil),
		certs:   memo.New[string, certify.Certificate](cfg.MaxEntries, 0, nil),
	}
}

// KeyFor derives the PlanKey of a matrix/option pair with the automatic
// kernel dispatch. Only the plan-shaping options (BlockSize, ExactLocal)
// enter the key.
func KeyFor(a *sparse.CSR, opt core.Options) PlanKey {
	return keyWithFingerprint(Fingerprint(a), opt, core.KernelAuto, nil)
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

// GetOrBuild returns the cached plan for key, building it from a and the
// declared stencil spec (nil when none) on a miss. hit reports whether the
// caller reused existing or in-flight work (waiters count as hits). The
// matrix must match the key's fingerprint and the spec its Stencil; this
// is the caller's contract, not re-verified here (fingerprinting costs a
// full pass).
func (c *PlanCache) GetOrBuild(a *sparse.CSR, key PlanKey, stencil *sparse.StencilSpec) (plan *Plan, hit bool, err error) {
	plan, o, err := c.plans.Get(key, func() (*Plan, error) {
		prepared, err := core.NewPlanWithConfig(a, key.BlockSize, key.ExactLocal, core.PlanConfig{Kernel: key.Kernel, Stencil: stencil})
		if err != nil {
			return nil, fmt.Errorf("service: building plan %v: %w", key, err)
		}
		return &Plan{Key: key, Prepared: prepared, Bytes: prepared.MemoryBytes()}, nil
	})
	return plan, o != memo.Computed, err
}

// Get returns the cached plan without building, not counting a hit or
// miss. Intended for introspection and tests.
func (c *PlanCache) Get(key PlanKey) (*Plan, bool) {
	return c.plans.Peek(key)
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	st := c.plans.Stats()
	return CacheStats{
		Hits:      st.Hits + st.Joins,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
	}
}
