package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/sparse"
)

// doomedRequest is the s1rmt3m1-analog submission: SPD-violating,
// non-dominant, ρ(B) ≈ 2.66 — provably divergent under relaxation.
func doomedRequest(t *testing.T, mode string) SolveRequest {
	return SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, mats.S1RMT3M1(200)),
			BlockSize:      32,
			LocalIters:     1,
			MaxGlobalIters: 50,
			Tolerance:      1e-8,
			Seed:           7,
			Certify:        mode,
		},
	}
}

func TestCertifyEnforceRejectsDoomedAtSubmit(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	_, err := s.Submit(doomedRequest(t, "enforce"))
	if !errors.Is(err, certify.ErrDivergent) {
		t.Fatalf("err = %v, want wrapped certify.ErrDivergent", err)
	}
	ce := errCertificate(err)
	if ce == nil {
		t.Fatalf("err %v carries no certificate", err)
	}
	if ce.Certificate.Verdict != certify.VerdictDiverges {
		t.Fatalf("refusal certificate verdict = %v, want diverges", ce.Certificate.Verdict)
	}
	st := s.Stats()
	if st.CertRejected != 1 {
		t.Fatalf("cert_rejected = %d, want 1", st.CertRejected)
	}
	if st.Submitted != 0 {
		t.Fatalf("a refused admission counted as submitted (%d)", st.Submitted)
	}
}

func TestCertifyWarnRunsDoomedToNotConverged(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	j, err := s.Submit(doomedRequest(t, "warn"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobFailed {
		t.Fatalf("state = %v, want failed", st)
	}
	if jerr := j.Err(); !errors.Is(jerr, core.ErrNotConverged) && !errors.Is(jerr, core.ErrDiverged) {
		t.Fatalf("err = %v, want ErrNotConverged or ErrDiverged", jerr)
	}
	res := j.Result()
	if res == nil || res.Certificate == nil {
		t.Fatalf("warn result missing certificate: %+v", res)
	}
	if res.Certificate.Verdict != certify.VerdictDiverges {
		t.Fatalf("certificate verdict = %v, want diverges", res.Certificate.Verdict)
	}
}

// weakTridiag builds the [−1, d, −1] Toeplitz with d < 2: a Z-matrix with
// ρ(B) = 2cos(π/(n+1))/d > 1 — certified divergent — that GMRES still
// solves (for n below the restart length the Krylov recurrence is exact).
func weakTridiag(n int, d float64) *sparse.CSR {
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, d)
		if i+1 < n {
			c.Add(i, i+1, -1)
			c.Add(i+1, i, -1)
		}
	}
	return c.ToCSR()
}

func TestCertifyEnforceFallbackGMRES(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := SolveRequest{
		SolverSpec: SolverSpec{
			MatrixMarket:   mmPayload(t, weakTridiag(24, 1.3)),
			BlockSize:      8,
			LocalIters:     1,
			MaxGlobalIters: 500,
			Tolerance:      1e-8,
			Seed:           7,
			Certify:        "enforce",
		},
		Fallback: "gmres",
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("fallback submission refused: %v", err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state = %v (%v), want done — GMRES handles the weak tridiagonal", st, j.Err())
	}
	res := j.Result()
	if res == nil || res.Fallback != "gmres" || !res.Converged {
		t.Fatalf("result = %+v, want converged gmres fallback", res)
	}
	if res.Certificate == nil || res.Certificate.Verdict != certify.VerdictDiverges {
		t.Fatalf("fallback result missing the triggering certificate: %+v", res.Certificate)
	}
	if got := s.Stats().CertFallbacks; got != 1 {
		t.Fatalf("cert_fallbacks = %d, want 1", got)
	}
}

func TestCertifyEnforceAdmitsConvergentAndEchoesPrediction(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	req.Certify = "enforce"
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("enforce refused a convergent matrix: %v", err)
	}
	waitDone(t, j)
	res := j.Result()
	if res == nil || !res.Converged {
		t.Fatalf("result = %+v (%v), want converged", res, j.Err())
	}
	if res.Certificate == nil || res.Certificate.Verdict != certify.VerdictConverges {
		t.Fatalf("certificate = %+v, want converges", res.Certificate)
	}
	if res.PredictedVsActual <= 0 {
		t.Fatalf("predicted_vs_actual = %g, want positive", res.PredictedVsActual)
	}
}

func TestCertifyRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	req.Certify = "sometimes"
	if _, err := s.Submit(req); err == nil {
		t.Fatal("unknown certify mode accepted")
	}
	req = quickRequest(t)
	req.Fallback = "gmres" // without certify=enforce
	if _, err := s.Submit(req); err == nil {
		t.Fatal("fallback without certify=enforce accepted")
	}
	req = quickRequest(t)
	req.Certify = "enforce"
	req.Fallback = "cg"
	if _, err := s.Submit(req); err == nil {
		t.Fatal("unknown fallback accepted")
	}
}

func TestCertifyCacheHitMissCoalesce(t *testing.T) {
	cache := NewPlanCache(CacheConfig{})
	a := mats.Poisson2D(12, 12)
	fp := Fingerprint(a)

	// Miss, then resident hit.
	c1, hit, err := cache.GetOrCertify(a, fp, certify.Options{})
	if err != nil || hit {
		t.Fatalf("first lookup: hit=%v err=%v, want miss", hit, err)
	}
	c2, hit, err := cache.GetOrCertify(a, fp, certify.Options{})
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v, want hit", hit, err)
	}
	if c1 != c2 {
		t.Fatalf("cache returned a different certificate: %v vs %v", c1, c2)
	}
	st := cache.CertifyStats()
	if st.Checks != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 check / 1 hit / 1 entry", st)
	}

	// Concurrent lookups of a fresh fingerprint coalesce: exactly one
	// certification runs, the rest join it.
	b := mats.S1RMT3M1(150)
	fpB := Fingerprint(b)
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := cache.GetOrCertify(b, fpB, certify.Options{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st = cache.CertifyStats()
	if st.Checks != 2 {
		t.Fatalf("checks = %d after coalesced burst, want 2", st.Checks)
	}
	if st.Hits+st.Coalesced != callers {
		t.Fatalf("hits+coalesced = %d+%d, want %d", st.Hits, st.Coalesced, callers)
	}
}

func TestCertifyCacheEvictionAlongsidePlanCache(t *testing.T) {
	// Entry bound 2 for both caches: certifying three distinct matrices
	// must evict the least recently certified, exactly like the plan LRU.
	cache := NewPlanCache(CacheConfig{MaxEntries: 2})
	ms := []*sparse.CSR{mats.Poisson2D(8, 8), mats.Poisson2D(9, 9), mats.Poisson2D(10, 10)}
	fps := make([]string, len(ms))
	for i, m := range ms {
		fps[i] = Fingerprint(m)
		if _, _, err := cache.GetOrCertify(m, fps[i], certify.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cache.GetOrBuild(m, keyWithFingerprint(fps[i], core.Options{BlockSize: 16, LocalIters: 2}, core.KernelAuto, nil), nil); err != nil {
			t.Fatal(err)
		}
	}
	cst := cache.CertifyStats()
	if cst.Entries != 2 || cst.Evictions != 1 {
		t.Fatalf("cert cache after 3 inserts with bound 2: %+v, want 2 entries / 1 eviction", cst)
	}
	pst := cache.Stats()
	if pst.Entries != 2 || pst.Evictions != 1 {
		t.Fatalf("plan cache after 3 inserts with bound 2: %+v, want 2 entries / 1 eviction", pst)
	}
	// The evicted fingerprint re-certifies (a fresh check, not a hit).
	before := cst.Checks
	if _, hit, err := cache.GetOrCertify(ms[0], fps[0], certify.Options{}); err != nil || hit {
		t.Fatalf("evicted entry lookup: hit=%v err=%v, want miss", hit, err)
	}
	if got := cache.CertifyStats().Checks; got != before+1 {
		t.Fatalf("checks = %d, want %d", got, before+1)
	}
}

func TestCertifySubmitCachesAcrossJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	defer s.Shutdown(context.Background())

	for i := 0; i < 3; i++ {
		j, err := s.Submit(doomedRequest(t, "warn"))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	st := s.Stats().CertCache
	if st.Checks != 1 {
		t.Fatalf("checks = %d after 3 identical submissions, want 1 (cached)", st.Checks)
	}
	if st.Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.Hits)
	}
}

func TestHTTPCertify422CarriesCertificate(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())
	h := NewHandler(s)

	body, _ := json.Marshal(doomedRequest(t, "enforce"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", rec.Code, rec.Body.String())
	}
	var resp struct {
		Error       string              `json:"error"`
		Certificate certify.Certificate `json:"certificate"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding 422 body: %v", err)
	}
	if resp.Error == "" || resp.Certificate.Verdict != certify.VerdictDiverges {
		t.Fatalf("422 body = %+v, want error + diverges certificate", resp)
	}
	if resp.Certificate.RhoJacobi <= 1 {
		t.Fatalf("certificate evidence rho(B) = %g, want > 1", resp.Certificate.RhoJacobi)
	}

	// /statsz exposes the certify counters.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.CertRejected != 1 || st.CertCache.Checks != 1 {
		t.Fatalf("statsz cert counters = %+v / rejected %d, want 1 check, 1 rejection", st.CertCache, st.CertRejected)
	}

	// /metricsz exposes the service_certify_* series.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metricsz", nil))
	text, _ := io.ReadAll(rec.Body)
	for _, want := range []string{
		"service_certify_checks_total 1",
		"service_certify_rejections_total 1",
		"service_certify_cache_entries 1",
	} {
		if !bytes.Contains(text, []byte(want)) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}
