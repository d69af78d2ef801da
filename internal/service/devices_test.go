package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/multigpu"
)

// TestServiceDeviceSolve routes a job through the live multi-device
// executor and checks the result carries the configuration echo, the
// modeled wall time, and that the per-strategy counter in /metricsz agrees
// with /statsz.
func TestServiceDeviceSolve(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer s.Shutdown(context.Background())

	req := quickRequest(t)
	req.Devices = 2
	req.Strategy = "amc"
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.State(); st != JobDone {
		t.Fatalf("state %v (err %v), want done", st, j.Err())
	}
	res := j.Result()
	if !res.Converged {
		t.Fatalf("not converged: residual %g", res.Residual)
	}
	if res.Devices != 2 || res.Strategy != "AMC" {
		t.Errorf("result echoes devices=%d strategy=%q, want 2/AMC", res.Devices, res.Strategy)
	}
	if res.ModeledSeconds <= 0 {
		t.Errorf("ModeledSeconds = %g, want > 0 for a device job", res.ModeledSeconds)
	}

	if got := s.Stats().DeviceSolves["AMC"]; got != 1 {
		t.Errorf("Stats device_solves[AMC] = %d, want 1", got)
	}
	var sb strings.Builder
	if err := s.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `service_device_solves_total{strategy="AMC"} 1`) {
		t.Error("/metricsz missing service_device_solves_total{strategy=\"AMC\"} 1")
	}
	// The sharded executor reports under its own engine label.
	if !strings.Contains(sb.String(), `core_global_iterations_total{engine="sharded"}`) {
		t.Error("/metricsz missing the sharded engine's iteration counter")
	}
}

func TestServiceDeviceValidation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	base := func() SolveRequest {
		return SolveRequest{SolverSpec: SolverSpec{Matrix: "fv1", BlockSize: 8, LocalIters: 1, MaxGlobalIters: 1}}
	}

	cases := []struct {
		name   string
		mutate func(*SolveRequest)
	}{
		{"negative devices", func(r *SolveRequest) { r.Devices = -1 }},
		{"strategy without devices", func(r *SolveRequest) { r.Strategy = "amc" }},
		{"unknown strategy", func(r *SolveRequest) { r.Devices = 2; r.Strategy = "nvlink" }},
		{"engine with devices", func(r *SolveRequest) { r.Devices = 2; r.Engine = "goroutine" }},
		{"tune with devices", func(r *SolveRequest) { r.Devices = 2; r.Tune = "auto"; r.BlockSize = 0 }},
		{"too many devices", func(r *SolveRequest) { r.Devices = 9 }},
	}
	for _, tc := range cases {
		req := base()
		tc.mutate(&req)
		if _, err := s.Submit(req); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}

	req := base()
	req.Devices = 3
	req.Strategy = "dc"
	if _, err := s.Submit(req); !errors.Is(err, multigpu.ErrUnsupported) {
		t.Errorf("DC with 3 devices: err = %v, want ErrUnsupported at submit time", err)
	}
}
