package service

import (
	"repro/internal/memo"
	"repro/internal/sparse"
	"repro/internal/tune"
)

// TunedParams reports the configuration an auto-tuned job solved with.
type TunedParams struct {
	BlockSize  int     `json:"block_size"`
	LocalIters int     `json:"local_iters"`
	Omega      float64 `json:"omega"`
	// Method and Beta report the update rule the job solved with after the
	// tuner's method stage ("jacobi" with beta 0 when the first-order rule
	// won or the request pinned the method itself).
	Method string  `json:"method,omitempty"`
	Beta   float64 `json:"beta,omitempty"`
	// SecondsPerDigit is the tuner's modeled score of the winning
	// configuration (see tune.Result).
	SecondsPerDigit float64 `json:"seconds_per_digit"`
	// CacheHit reports whether the parameters came from the tuning cache
	// (true: this job ran zero probe solves).
	CacheHit bool `json:"cache_hit"`
}

// TuneStats is a point-in-time snapshot of the tuning-cache counters.
type TuneStats struct {
	// Searches counts full parameter searches executed (cache misses).
	Searches uint64 `json:"searches"`
	// Hits counts lookups served from the cache or by joining an
	// in-flight search.
	Hits uint64 `json:"hits"`
	// ProbeSolves counts every short probe solve the searches ran — the
	// work hits avoid.
	ProbeSolves uint64 `json:"probe_solves"`
	// Evictions counts tunings dropped to respect the entry bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of cached tunings.
	Entries int `json:"entries"`
}

// GetOrTune returns the cached tuning for the matrix fingerprint, running
// the full parameter search on a miss. The tuned parameters are a property
// of the operator — the probe right-hand side only mildly perturbs the
// measured contraction rates — so the fingerprint alone keys them: a warm
// daemon tunes each matrix once. Concurrent calls for the same missing
// fingerprint coalesce into a single search (the waiters count as hits:
// they run no probes of their own). hit reports whether the caller reused
// existing or in-flight work.
func (c *PlanCache) GetOrTune(a *sparse.CSR, fp string, b []float64, cfg tune.Config) (tune.Result, bool, error) {
	r, o, err := c.tunings.Get(fp, func() (tune.Result, error) {
		r, err := tune.Tune(a, b, cfg)
		c.probes.Add(uint64(r.ProbeSolves))
		return r, err
	})
	return r, o != memo.Computed, err
}

// TuneStats snapshots the tuning-cache counters.
func (c *PlanCache) TuneStats() TuneStats {
	st := c.tunings.Stats()
	return TuneStats{
		Searches:    st.Misses,
		Hits:        st.Hits + st.Joins,
		ProbeSolves: c.probes.Load(),
		Evictions:   st.Evictions,
		Entries:     st.Entries,
	}
}
