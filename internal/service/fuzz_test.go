package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// fuzzMatrix is a small inline Matrix Market payload for the seed corpus.
const fuzzMatrix = "%%MatrixMarket matrix coordinate real general\n" +
	"4 4 10\n1 1 4\n2 2 4\n3 3 4\n4 4 4\n1 2 -1\n2 1 -1\n2 3 -1\n3 2 -1\n3 4 -1\n4 3 -1\n"

// sanitizeFuzzService bounds the execution cost of a fuzzed request so the
// fuzzer exercises the decoder/validation surface, not the solver or the
// tuner: named-matrix generation, auto-tuning and certification are all
// off, and iteration budgets are clamped.
func sanitizeFuzz(maxIters int, matrix *string, tune, certify *string, iters *int) {
	*matrix = "" // named matrices can generate arbitrarily large systems
	*tune = ""
	*certify = "off"
	if *iters > maxIters || *iters < 0 {
		*iters = maxIters
	}
}

// FuzzSessionRequest fuzzes the session JSON decoders end to end: a create
// payload and a step payload, fed through CreateSession and StepSession
// against both the created session and a duplicate/bogus ID. Whatever the
// bytes, the service must answer with an error or a result — never a panic,
// a negative counter or a stuck in-flight gauge.
func FuzzSessionRequest(f *testing.F) {
	valid, _ := json.Marshal(SessionRequest{
		SolverSpec: SolverSpec{
			MatrixMarket: fuzzMatrix, BlockSize: 2, LocalIters: 2, MaxGlobalIters: 50, Tolerance: 1e-8, Seed: 7,
		},
	})
	step, _ := json.Marshal(StepRequest{RHS: []float64{1, 1, 1, 1}})
	f.Add(valid, step)
	f.Add(valid, []byte(`{"rhs":[]}`))                        // empty RHS
	f.Add(valid, []byte(`{"rhs":[1,2]}`))                     // wrong length
	f.Add(valid, []byte(`{"rhs":[1,2,3,4,5,6,7]}`))           // overlong RHS
	f.Add(valid, []byte(`{"rhs":[1e308,1e308,1,1]}`))         // overflow-prone values
	f.Add(valid, []byte(`{"rhs":[1,1,1,1],"seed":-1}`))       // negative seed
	f.Add([]byte(`{"matrix_market":"bogus"}`), step)          // unparseable matrix
	f.Add([]byte(`{"ttl_seconds":-5}`), step)                 // negative TTL
	f.Add([]byte(`{"engine":"cuda"}`), step)                  // unknown engine
	f.Add([]byte(`{`), []byte(`{`))                           // malformed JSON
	f.Add([]byte(`{"block_size":-3,"local_iters":-9}`), step) // negative config

	s := New(Config{
		Workers: 1, QueueDepth: 2,
		MaxSessions: 4, SessionReapInterval: time.Hour, MaxMatrixRows: 512,
	})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	f.Fuzz(func(t *testing.T, create, stepBody []byte) {
		if len(create) > 8<<10 || len(stepBody) > 64<<10 {
			t.Skip("oversized input")
		}
		var req SessionRequest
		_ = json.Unmarshal(create, &req) // decode errors still exercise the zero request
		sanitizeFuzz(50, &req.Matrix, &req.Tune, &req.Certify, &req.MaxGlobalIters)

		id := "sess-000001" // a duplicate/stale ID when creation fails
		v, err := s.CreateSession(req)
		if err == nil {
			id = v.ID
		}

		var sreq StepRequest
		_ = json.Unmarshal(stepBody, &sreq)
		sreq.Stream = "" // the wire framing is the HTTP layer's, not the store's
		if sreq.TimeoutSeconds < 0 || sreq.TimeoutSeconds > 5 {
			sreq.TimeoutSeconds = 5
		}
		_, _ = s.StepSession(id, sreq, nil)
		if err == nil {
			_, _ = s.CloseSession(v.ID) // keep the active set bounded
		}

		st := s.Stats().Sessions
		if st.InflightSteps != 0 {
			t.Fatalf("in-flight gauge leaked: %+v", st)
		}
		if st.Active < 0 || st.Closed > st.Created {
			t.Fatalf("counter invariant broken: %+v", st)
		}
	})
}

// FuzzBatchRequest fuzzes the batch JSON decoder and submit path: malformed
// RHS shapes, zero-system batches, hostile worker counts. Accepted jobs are
// canceled immediately — the fuzz target is admission, not the solver.
func FuzzBatchRequest(f *testing.F) {
	valid, _ := json.Marshal(BatchRequest{
		SolverSpec: SolverSpec{
			MatrixMarket: fuzzMatrix,
			BlockSize:    2, LocalIters: 2, MaxGlobalIters: 50, Tolerance: 1e-8, Seed: 42,
		}, RHS: [][]float64{{1, 1, 1, 1}, {2, 2, 2, 2}},
	})
	f.Add(valid)
	f.Add([]byte(`{"rhs":[]}`))                          // zero systems
	f.Add([]byte(`{"rhs":[[1],[1,2],[1,2,3]]}`))         // ragged lengths
	f.Add([]byte(`{"rhs":[[]],"workers":-1}`))           // empty system, bad workers
	f.Add([]byte(`{"rhs":[[1,1,1,1]],"workers":99999}`)) // huge workers
	f.Add([]byte(`{"rhs":null}`))
	f.Add([]byte(`{`))

	s := New(Config{
		Workers: 1, QueueDepth: 4,
		MaxBatchSystems: 8, MaxBatchWorkers: 2, SessionReapInterval: time.Hour, MaxMatrixRows: 512,
	})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 64<<10 {
			t.Skip("oversized input")
		}
		var req BatchRequest
		_ = json.Unmarshal(body, &req)
		sanitizeFuzz(50, &req.Matrix, &req.Tune, &req.Certify, &req.MaxGlobalIters)

		j, err := s.SubmitBatch(req)
		if err != nil {
			return
		}
		j.Cancel(ErrShuttingDown)
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("accepted batch never reached a terminal state (state %v)", j.State())
		}
		if st := s.Stats().Batch; st.Submitted == 0 {
			t.Fatalf("accepted batch not counted: %+v", st)
		}
	})
}
