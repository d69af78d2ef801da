package service

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// signedCycle is the n-cycle operator I − B with |b_ij| = c on the cycle's
// edges and one edge's sign flipped. For even n, ρ(|B|) = 2c while
// ρ(B) = 2c·cos(π/n): with c slightly above 1/2, Jacobi converges but no
// asynchronous guarantee holds — the certifier's Unknown verdict.
func signedCycle(n int, c float64) *sparse.CSR {
	m := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		v := -c
		if j == 0 {
			v = c
		}
		m.Add(i, i, 1)
		m.Add(i, j, v)
		m.Add(j, i, v)
	}
	return m.ToCSR()
}

// TestAnalysisRenderingPerVerdict solves one operator per certificate
// verdict with certify off and AnalyzeSpectrum on. Every job runs — the
// advice never refuses or reroutes a certify-off job, a divergent operator
// included — and its analysis is the rendering of the fingerprint's
// certificate, with the §4.2 τ advice on the Diverges row only.
func TestAnalysisRenderingPerVerdict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		a       *sparse.CSR
		verdict certify.Verdict
		want    []string
	}{
		{"converges", mats.Poisson2D(16, 16), certify.VerdictConverges,
			[]string{"rho(|B|)=0.9830", "asynchronous convergence guaranteed"}},
		{"unknown", signedCycle(6, 0.52), certify.VerdictUnknown,
			[]string{"rho(|B|)=1.0400", "not guaranteed"}},
		{"diverges", mats.S1RMT3M1(200), certify.VerdictDiverges,
			[]string{"plain relaxation diverges", "use the scaled iteration with tau="}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, QueueDepth: 2, Cache: CacheConfig{AnalyzeSpectrum: true}})
			defer s.Shutdown(context.Background())
			j, err := s.Submit(SolveRequest{SolverSpec: SolverSpec{
				MatrixMarket:   mmPayload(t, tc.a),
				BlockSize:      32,
				LocalIters:     1,
				MaxGlobalIters: 30,
				Tolerance:      1e-8,
				Seed:           7,
			}})
			if err != nil {
				t.Fatalf("a certify-off job was refused: %v", err)
			}
			waitDone(t, j)
			res := j.Result()
			if res == nil || res.GlobalIterations == 0 {
				t.Fatalf("the job did not iterate: result %+v, err %v", res, j.Err())
			}
			if res.Certificate != nil || res.Fallback != "" {
				t.Fatalf("certify-off job carries certificate %v / fallback %q", res.Certificate, res.Fallback)
			}
			cert, hit, err := s.Cache().GetOrCertify(tc.a, res.Fingerprint, certify.Options{Seed: 1})
			if err != nil || !hit {
				t.Fatalf("the analysis left no cached certificate (hit=%t, err=%v)", hit, err)
			}
			if cert.Verdict != tc.verdict {
				t.Fatalf("verdict = %v, want %v (%v)", cert.Verdict, tc.verdict, cert)
			}
			var tau float64
			if cert.Verdict == certify.VerdictDiverges {
				if tau, err = spectral.TauScaling(tc.a, 32, 1); err != nil || tau <= 0 {
					t.Fatalf("τ estimate = %g, %v", tau, err)
				}
			}
			if want := analysisText(cert, tau); res.Analysis != want {
				t.Fatalf("analysis = %q, want %q", res.Analysis, want)
			}
			for _, w := range tc.want {
				if !strings.Contains(res.Analysis, w) {
					t.Errorf("analysis %q lacks %q", res.Analysis, w)
				}
			}
			if tc.verdict != certify.VerdictDiverges && strings.Contains(res.Analysis, "tau=") {
				t.Errorf("τ advice on a %v verdict: %q", tc.verdict, res.Analysis)
			}
		})
	}
}

// TestUnknownCertificateRhoJacobi: the signed 6-cycle's iteration matrix
// has a spectrum symmetric about 0, on which a Rayleigh quotient cancels.
// Its Unknown certificate must still report ρ(B) as core.CheckConvergence
// measures it.
func TestUnknownCertificateRhoJacobi(t *testing.T) {
	a := signedCycle(6, 0.52)
	cert, err := certify.Certify(a, certify.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.CheckConvergence(a, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != certify.VerdictUnknown {
		t.Fatalf("verdict = %v, want unknown (%v)", cert.Verdict, cert)
	}
	if math.Abs(cert.RhoJacobi-rep.RhoB) > 1e-3 {
		t.Fatalf("certificate ρ(B) = %.4f, CheckConvergence ρ(B) = %.4f (%s)", cert.RhoJacobi, rep.RhoB, cert.Reason)
	}
}

// TestAnalysisOneCertificationOnePlan checks that the analysis costs one
// certification per matrix and that plans are keyed by shape alone: solve
// jobs varying k, ω, method and β on one operator build one plan and run
// one certification, and every job's analysis is that certificate's
// rendering. Sessions and batches never render the advice, so with
// certify off they run no certification at all.
func TestAnalysisOneCertificationOnePlan(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 8, Cache: CacheConfig{AnalyzeSpectrum: true}}
	s := New(cfg)
	defer s.Shutdown(context.Background())

	variants := []func(*SolveRequest){
		func(r *SolveRequest) {},
		func(r *SolveRequest) { r.LocalIters = 3 },
		func(r *SolveRequest) { r.Omega = 0.9 },
		func(r *SolveRequest) { r.Method = "richardson2" },
		func(r *SolveRequest) { r.Method, r.Beta = "richardson2", 0.5 },
	}
	jobs := make([]*Job, len(variants))
	for i, vary := range variants {
		req := quickRequest(t)
		vary(&req)
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.State(); st != JobDone {
			t.Fatalf("%s: state %v (%v), want done", j.ID(), st, j.Err())
		}
	}
	st := s.Stats()
	if st.PlanCache.Misses != 1 || st.PlanCache.Hits != uint64(len(variants)-1) {
		t.Errorf("plan cache = %+v, want 1 miss and %d hits", st.PlanCache, len(variants)-1)
	}
	if st.CertCache.Checks != 1 {
		t.Errorf("certifications = %d, want 1", st.CertCache.Checks)
	}
	a := mats.Poisson2D(16, 16)
	cert, _, err := s.Cache().GetOrCertify(a, Fingerprint(a), certify.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := analysisText(cert, 0)
	for _, j := range jobs {
		if got := j.Result().Analysis; got != want {
			t.Errorf("%s: analysis = %q, want %q", j.ID(), got, want)
		}
	}
	if m := st.MethodSolves; m[core.RuleJacobi.String()] != 3 || m[core.RuleRichardson2.String()] != 2 {
		t.Errorf("method solves = %v, want 3 jacobi / 2 richardson2", m)
	}

	// A session and a batch with certify off on a fresh service: no
	// certification, and one plan between them.
	s2 := New(cfg)
	defer s2.Shutdown(context.Background())
	v, err := s2.CreateSession(quickSessionRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.StepSession(v.ID, StepRequest{RHS: sessionRHS(256, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	breq := quickBatchRequest(t, 2)
	breq.LocalIters, breq.Method = 3, "richardson2"
	bj, err := s2.SubmitBatch(breq)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bj)
	if st := bj.State(); st != JobDone {
		t.Fatalf("batch state %v (%v), want done", st, bj.Err())
	}
	st2 := s2.Stats()
	if st2.CertCache.Checks != 0 {
		t.Errorf("certify-off session and batch ran %d certifications, want 0", st2.CertCache.Checks)
	}
	if st2.PlanCache.Misses != 1 {
		t.Errorf("session and batch of one shape built %d plans, want 1", st2.PlanCache.Misses)
	}
}
