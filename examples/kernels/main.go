// Example kernels demonstrates the sweep-kernel dispatch of
// docs/KERNELS.md from both ends.
//
// In process, it declares the 5-point Poisson stencil via a
// core.PlanConfig StencilSpec — the caller generated the operator, so
// there is nothing to detect — and solves matrix-free: interior rows never
// load a column index. The same plan then solves again with float32
// iterate storage ("precision": "f32"), showing the residual landing at
// the f32 rounding floor instead of the f64 tolerance.
//
// Against a running solverd, it submits one auto-dispatched f32 solve of
// the fv1 stencil family, prints the resolved kernel and precision echoed
// in the job result, and scrapes the service_kernel_solves_total counters
// from /metricsz.
//
// Start the daemon first:
//
//	go run ./cmd/solverd -addr :8080
//
// then:
//
//	go run ./examples/kernels -addr http://localhost:8080
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mats"
	"repro/internal/sparse"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "solverd base URL ('' to skip the daemon half)")
	flag.Parse()

	inProcess()
	if *addr != "" {
		againstDaemon(*addr)
	}
}

// inProcess declares the stencil instead of detecting it and solves
// matrix-free, in f64 and then in f32.
func inProcess() {
	const w, h = 64, 64
	a := mats.Poisson2D(w, h)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}

	// The caller generated the operator, so it declares the stencil: the
	// 5-point Laplacian on a w-wide grid. A declared spec skips detection
	// entirely (and its threshold — even boundary-heavy matrices qualify).
	plan, err := core.NewPlanWithConfig(a, 512, false, core.PlanConfig{
		Stencil: &sparse.StencilSpec{
			Offsets: []int{-w, -1, 0, 1, w},
			Coeffs:  []float64{-1, -1, 4, -1, -1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	si := plan.StencilInfo()
	fmt.Printf("plan: kernel=%s, %d-point stencil, %d interior / %d boundary rows\n",
		plan.Kernel(), len(si.Spec.Offsets), si.InteriorRows, si.BoundaryRows)

	opt := core.Options{
		BlockSize: 512, LocalIters: 20, MaxGlobalIters: 3000,
		Tolerance: 1e-10, Seed: 1,
	}
	res, err := core.SolveWithPlan(plan, b, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("f64: converged=%t iters=%d residual=%.3e\n",
		res.Converged, res.GlobalIterations, res.Residual)

	// Same plan, float32 iterate storage: accumulation and residual checks
	// stay f64, so the iteration converges to the f32 rounding floor and no
	// further — for this operator the floor is ≈ eps32·‖A‖∞·(1+‖x‖₂) ≈ 4e-3,
	// so ask for a tolerance above it (docs/KERNELS.md derives the bound).
	opt.Precision = core.PrecF32
	opt.Tolerance = 1e-2
	res32, err := core.SolveWithPlan(plan, b, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("f32: converged=%t iters=%d residual=%.3e\n\n",
		res32.Converged, res32.GlobalIterations, res32.Residual)
}

type submitResponse struct {
	JobID     string `json:"job_id"`
	StatusURL string `json:"status_url"`
}

type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Converged        bool    `json:"converged"`
		GlobalIterations int     `json:"global_iterations"`
		Residual         float64 `json:"residual"`
		Kernel           string  `json:"kernel"`
		Precision        string  `json:"precision"`
	} `json:"result"`
}

// againstDaemon submits one auto-dispatched f32 solve, then scrapes the
// per-kernel solve counters.
func againstDaemon(addr string) {
	reqs := []map[string]any{
		// fv1 is a constant-coefficient stencil family: "auto" resolves to
		// the matrix-free kernel, and the f32 tolerance sits above the
		// rounding floor.
		{"matrix": "fv1", "kernel": "auto", "precision": "f32",
			"block_size": 448, "local_iters": 5, "max_global_iters": 500, "tolerance": 1e-4},
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(addr+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var sub submitResponse
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			log.Fatalf("submit %v: unexpected status %d", req["matrix"], resp.StatusCode)
		}
		for {
			var jv jobView
			get(addr+sub.StatusURL, &jv)
			if jv.State == "done" {
				fmt.Printf("%s %s: kernel=%s precision=%s converged=%t iters=%d residual=%.3e\n",
					jv.ID, req["matrix"], jv.Result.Kernel, jv.Result.Precision,
					jv.Result.Converged, jv.Result.GlobalIterations, jv.Result.Residual)
				break
			}
			if jv.State == "failed" || jv.State == "canceled" {
				log.Fatalf("%s: %s: %s", jv.ID, jv.State, jv.Error)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	fmt.Println("\nper-kernel solve counters at /metricsz:")
	resp, err := http.Get(addr + "/metricsz")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "service_kernel_solves_total") {
			fmt.Println("  " + sc.Text())
		}
	}
}

func get(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatalf("GET %s: decoding: %v", url, err)
	}
}
