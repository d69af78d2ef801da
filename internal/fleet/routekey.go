package fleet

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"repro/internal/mats"
	"repro/internal/service"
	"repro/internal/sparse"
)

// keyResolver turns a submission into its routing key: the same matrix
// fingerprint the node-side plan/tune caches are keyed by, so ring
// placement is verifiable against the fingerprint echoed in job results.
//
// Named paper matrices are generated and fingerprinted once per name.
// Inline Matrix Market payloads are parsed and fingerprinted once per
// distinct payload (LRU over the payload's SHA-256): under Zipf-shaped
// popularity the popular bodies stay resident and routing costs one hash
// of the request body, not a parse.
type keyResolver struct {
	mu    sync.Mutex
	named map[string]string

	inlineMax int
	inline    map[string]*list.Element // payload sha256 hex -> fingerprint
	ll        *list.List               // of inlineEntry; front = most recent
}

type inlineEntry struct {
	payloadHash string
	fingerprint string
}

// defaultInlineKeyCache bounds the payload-hash→fingerprint map. At ~100
// bytes per entry this is a few hundred KB for a corpus far larger than
// the node-side plan caches it fronts.
const defaultInlineKeyCache = 4096

func newKeyResolver(inlineMax int) *keyResolver {
	if inlineMax <= 0 {
		inlineMax = defaultInlineKeyCache
	}
	return &keyResolver{
		named:     make(map[string]string),
		inlineMax: inlineMax,
		inline:    make(map[string]*list.Element),
		ll:        list.New(),
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
	r.mu.Lock()
	fp, ok := r.named[name]
	r.mu.Unlock()
	if ok {
		return fp, nil
	}
	tm, err := mats.Generate(name)
	if err != nil {
		return "", fmt.Errorf("fleet: %w", err)
	}
	fp = service.Fingerprint(tm.A)
	r.mu.Lock()
	r.named[name] = fp
	r.mu.Unlock()
	return fp, nil
}

func (r *keyResolver) inlineKey(payload string) (string, error) {
	sum := sha256.Sum256([]byte(payload))
	ph := hex.EncodeToString(sum[:16])

	r.mu.Lock()
	if el, ok := r.inline[ph]; ok {
		r.ll.MoveToFront(el)
		fp := el.Value.(inlineEntry).fingerprint
		r.mu.Unlock()
		return fp, nil
	}
	r.mu.Unlock()

	a, err := sparse.ReadMatrixMarket(strings.NewReader(payload))
	if err != nil {
		return "", fmt.Errorf("fleet: parsing matrix_market payload: %w", err)
	}
	fp := service.Fingerprint(a)

	r.mu.Lock()
	if _, ok := r.inline[ph]; !ok {
		r.inline[ph] = r.ll.PushFront(inlineEntry{payloadHash: ph, fingerprint: fp})
		for r.ll.Len() > r.inlineMax {
			back := r.ll.Back()
			delete(r.inline, back.Value.(inlineEntry).payloadHash)
			r.ll.Remove(back)
		}
	}
	r.mu.Unlock()
	return fp, nil
}
