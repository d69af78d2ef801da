package service

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/certify"
	"repro/internal/memo"
	"repro/internal/sparse"
	"repro/internal/spectral"
)

// CertificateError is the admission refusal of a certify=enforce request:
// the matrix was certified divergent and the job never entered the queue.
// It wraps certify.ErrDivergent (for errors.Is) and carries the full
// certificate so the HTTP layer can return a structured 422 body — the
// verdict is deterministic, so the client must change the request (or the
// matrix), not retry it elsewhere.
type CertificateError struct {
	Certificate certify.Certificate
}

// Error implements the error interface.
func (e *CertificateError) Error() string {
	return fmt.Sprintf("service: admission refused, matrix certified divergent: %s", e.Certificate.Reason)
}

// Unwrap lets errors.Is(err, certify.ErrDivergent) dispatch on refusals.
func (e *CertificateError) Unwrap() error { return certify.ErrDivergent }

// CertifyStats is a point-in-time snapshot of the certificate cache.
type CertifyStats struct {
	// Checks counts full certifications executed (cache misses).
	Checks uint64 `json:"checks"`
	// Hits counts lookups served from the resident cache.
	Hits uint64 `json:"hits"`
	// Coalesced counts lookups that joined an in-flight certification
	// instead of running their own.
	Coalesced uint64 `json:"coalesced"`
	// Evictions counts certificates dropped to respect the entry bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the number of resident certificates.
	Entries int `json:"entries"`
}

// GetOrCertify returns the certificate for the matrix fingerprint, running
// the certifier on a miss. A certificate is a pure function of the matrix
// (the certifier is deterministic for fixed options), so the fingerprint
// alone keys it. Concurrent calls for the same missing fingerprint coalesce
// into a single certification. hit reports whether the caller reused
// resident or in-flight work.
func (c *PlanCache) GetOrCertify(a *sparse.CSR, fp string, opt certify.Options) (certify.Certificate, bool, error) {
	cert, o, err := c.certs.Get(fp, func() (certify.Certificate, error) { return certify.Certify(a, opt) })
	return cert, o != memo.Computed, err
}

// CertifyStats snapshots the certificate-cache counters.
func (c *PlanCache) CertifyStats() CertifyStats {
	st := c.certs.Stats()
	return CertifyStats{
		Checks:    st.Misses,
		Hits:      st.Hits,
		Coalesced: st.Joins,
		Evictions: st.Evictions,
		Entries:   st.Entries,
	}
}

// certifyMode parses the request's certify field ("" means off).
func (r SolverSpec) certifyMode() (certify.Mode, error) {
	m, err := certify.ParseMode(r.Certify)
	if err != nil {
		return certify.ModeOff, fmt.Errorf("service: %w", err)
	}
	return m, nil
}

// fallbackGMRES parses the request's fallback field.
func (r SolveRequest) fallbackGMRES() (bool, error) {
	switch strings.ToLower(strings.TrimSpace(r.Fallback)) {
	case "":
		return false, nil
	case "gmres":
		return true, nil
	default:
		return false, fmt.Errorf("service: unknown fallback %q (want \"gmres\" or empty)", r.Fallback)
	}
}

// admitCertified runs the admission pre-flight for a validated spec:
// certify the matrix (through the fingerprint cache), refuse enforce-mode
// divergent verdicts unless the request asked for the GMRES fallback, and
// return the certificate plus whether the job must run that fallback
// instead of relaxation.
func (s *Service) admitCertified(spec SolverSpec, fallback bool, a *sparse.CSR, fp string) (*certify.Certificate, bool, error) {
	mode, err := spec.certifyMode()
	if err != nil || mode == certify.ModeOff {
		return nil, false, err
	}
	cert, _, err := s.cache.GetOrCertify(a, fp, certify.Options{Seed: analysisSeed})
	if err != nil {
		return nil, false, fmt.Errorf("service: admission certification: %w", err)
	}
	if mode == certify.ModeEnforce && cert.Verdict == certify.VerdictDiverges {
		if fallback {
			s.certFallbacks.Add(1)
			return &cert, true, nil
		}
		s.certRejected.Add(1)
		return &cert, false, &CertificateError{Certificate: cert}
	}
	return &cert, false, nil
}

// analysis renders a solve job's Analysis advice (CacheConfig.
// AnalyzeSpectrum): the paper's §2.2/§3.1 pre-flight, read off the
// matrix's certificate. A job admitted under certify=warn or enforce
// carries its certificate; any other job takes it from the certificate
// cache with the admission options, so one coalesced certification per
// fingerprint serves both. The advice never gates the solve: a
// certification error leaves it empty.
func (s *Service) analysis(j *Job, a *sparse.CSR, fp string) string {
	cert := j.cert
	if cert == nil {
		c, _, err := s.cache.GetOrCertify(a, fp, certify.Options{Seed: analysisSeed})
		if err != nil {
			return ""
		}
		cert = &c
	}
	var tau float64
	if cert.Verdict == certify.VerdictDiverges {
		// An estimate that fails (the matrix is not SPD-normalizable)
		// leaves the τ advice out.
		tau, _ = spectral.TauScaling(a, tauSteps, analysisSeed)
	}
	return analysisText(*cert, tau)
}

// analysisText renders a certificate as the advice the paper gives per
// system: Strikwerda's guarantee on a Converges verdict, its absence on
// Unknown, and on Diverges the reason plus — when tau > 0 — the scaled
// iteration with τ = 2/(λ₁+λₙ) of §4.2.
func analysisText(cert certify.Certificate, tau float64) string {
	switch cert.Verdict {
	case certify.VerdictConverges:
		return fmt.Sprintf("rho(|B|)=%.4f: asynchronous convergence guaranteed (Strikwerda; %s)", cert.RhoEstimate, cert.Class)
	case certify.VerdictDiverges:
		s := "plain relaxation diverges (" + cert.Reason + ")"
		if tau > 0 {
			s += fmt.Sprintf("; use the scaled iteration with tau=%.4f (paper §4.2)", tau)
		}
		return s
	default:
		return fmt.Sprintf("rho(|B|)=%.4f: asynchronous convergence not guaranteed for all schedules (%s)", cert.RhoEstimate, cert.Reason)
	}
}

// errCertificate extracts a CertificateError from an error chain, nil when
// absent. The HTTP layer uses it to emit the structured 422 body.
func errCertificate(err error) *CertificateError {
	var ce *CertificateError
	if errors.As(err, &ce) {
		return ce
	}
	return nil
}
