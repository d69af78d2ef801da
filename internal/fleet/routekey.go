package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/mats"
	"repro/internal/memo"
	"repro/internal/service"
	"repro/internal/sparse"
)

// keyResolver turns a submission into its routing key: the same matrix
// fingerprint the node-side plan/tune caches are keyed by, so ring
// placement is verifiable against the fingerprint echoed in job results.
//
// Named matrices are generated and fingerprinted once per name. Inline
// Matrix Market payloads are parsed and fingerprinted once per distinct
// payload (keyed by the payload's SHA-256): under Zipf-shaped popularity
// the popular bodies stay resident and routing costs one hash of the
// request body, not a parse. Both refuse a matrix over the node's row
// limit before sizing anything from it.
type keyResolver struct {
	named  *memo.Cache[string, string] // matrix name -> fingerprint
	inline *memo.Cache[string, string] // payload sha256 hex -> fingerprint
}

// routeKeyEntries bounds each of the resolver's maps. At ~100 bytes per
// entry this is a few hundred KB for a corpus far larger than the
// node-side plan caches it fronts.
const routeKeyEntries = 4096

func newKeyResolver() *keyResolver {
	return &keyResolver{
		named:  memo.New[string, string](routeKeyEntries, 0, nil),
		inline: memo.New[string, string](routeKeyEntries, 0, nil),
	}
}

// RouteKey resolves the matrix fingerprint of a submission's solver spec
// (every submission body embeds one). Specs that name no matrix at all
// are rejected here with the same error shape the node would produce,
// sparing a forward.
func (r *keyResolver) RouteKey(req service.SolverSpec) (string, error) {
	switch {
	case req.Matrix != "" && req.MatrixMarket != "":
		return "", fmt.Errorf("fleet: exactly one of matrix or matrix_market must be set")
	case req.Matrix != "":
		return r.namedKey(req.Matrix)
	case req.MatrixMarket != "":
		return r.inlineKey(req.MatrixMarket)
	default:
		return "", fmt.Errorf("fleet: exactly one of matrix or matrix_market must be set")
	}
}

func (r *keyResolver) namedKey(name string) (string, error) {
	fp, _, err := r.named.Get(name, func() (string, error) {
		tm, err := mats.GenerateLimit(name, service.DefaultMaxMatrixRows)
		if err != nil {
			return "", fmt.Errorf("fleet: %w", err)
		}
		return service.Fingerprint(tm.A), nil
	})
	return fp, err
}

func (r *keyResolver) inlineKey(payload string) (string, error) {
	sum := sha256.Sum256([]byte(payload))
	fp, _, err := r.inline.Get(hex.EncodeToString(sum[:16]), func() (string, error) {
		a, err := sparse.ReadMatrixMarketLimit(strings.NewReader(payload), service.DefaultMaxMatrixRows)
		if err != nil {
			return "", fmt.Errorf("fleet: parsing matrix_market payload: %w", err)
		}
		return service.Fingerprint(a), nil
	})
	return fp, err
}
