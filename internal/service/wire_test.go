package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestRequestWireFormat pins the JSON wire format of the three request
// bodies: a body carrying every key decodes strictly, re-encodes to the
// same keys and values, and the key sets are the ones written here.
// encoding/json silently drops two embedded fields that share a JSON name
// at the same depth, which the fuzzers (no panics) would not notice.
func TestRequestWireFormat(t *testing.T) {
	stencil := map[string]any{"offsets": []any{-1.0, 0.0, 1.0}, "coeffs": []any{-1.0, 2.0, -1.0}}
	spec := map[string]any{
		"matrix":           "fv1",
		"matrix_market":    "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n",
		"tune":             "auto",
		"block_size":       64.0,
		"local_iters":      5.0,
		"omega":            0.9,
		"max_global_iters": 100.0,
		"tolerance":        1e-8,
		"method":           "richardson2",
		"beta":             0.3,
		"stencil":          stencil,
		"kernel":           "stencil",
		"precision":        "f32",
		"seed":             7.0,
		"certify":          "warn",
	}
	with := func(extra map[string]any) map[string]any {
		body := map[string]any{}
		for k, v := range spec {
			body[k] = v
		}
		for k, v := range extra {
			body[k] = v
		}
		return body
	}
	for _, tc := range []struct {
		route string // POST /v1/<route>
		req   any
		body  map[string]any
		keys  []string
	}{
		{"solve", &SolveRequest{}, with(map[string]any{
			"rhs": []any{1.0}, "exact_local": true, "engine": "goroutine",
			"devices": 2.0, "strategy": "dc", "timeout_seconds": 3.0,
			"include_solution": true, "record_history": true, "fallback": "gmres",
			"chaos": map[string]any{"delay_prob": 0.1, "max_delay_ms": 2.0, "reorder_prob": 0.2, "stale_prob": 0.3, "seed": 4.0},
		}), []string{
			"beta", "block_size", "certify", "chaos", "devices", "engine", "exact_local",
			"fallback", "include_solution", "kernel", "local_iters", "matrix", "matrix_market",
			"max_global_iters", "method", "omega", "precision", "record_history", "rhs", "seed",
			"stencil", "strategy", "timeout_seconds", "tolerance", "tune",
		}},
		{"sessions", &SessionRequest{}, with(map[string]any{
			"engine": "goroutine", "ttl_seconds": 30.0,
		}), []string{
			"beta", "block_size", "certify", "engine", "kernel", "local_iters", "matrix",
			"matrix_market", "max_global_iters", "method", "omega", "precision", "seed",
			"stencil", "tolerance", "ttl_seconds", "tune",
		}},
		{"batch", &BatchRequest{}, with(map[string]any{
			"rhs": []any{[]any{1.0}, []any{2.0}}, "workers": 2.0,
			"timeout_seconds": 3.0, "include_solutions": true,
		}), []string{
			"beta", "block_size", "certify", "include_solutions", "kernel", "local_iters",
			"matrix", "matrix_market", "max_global_iters", "method", "omega", "precision",
			"rhs", "seed", "stencil", "timeout_seconds", "tolerance", "tune", "workers",
		}},
	} {
		t.Run(tc.route, func(t *testing.T) {
			in, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(in))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.req); err != nil {
				t.Fatalf("decode: %v", err)
			}
			out, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(out, &got); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, tc.keys) {
				t.Errorf("re-encoded keys\n got  %v\n want %v", keys, tc.keys)
			}
			if !reflect.DeepEqual(got, tc.body) {
				t.Errorf("round trip changed the body\n got  %s\n want %s", out, in)
			}
		})
	}
}
