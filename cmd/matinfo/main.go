// Command matinfo regenerates the paper's Table 1 (dimensions, condition
// numbers and iteration-matrix spectral radii of the test systems) and, on
// request, the sparsity plots of Figure 1.
//
// Usage:
//
//	matinfo [-short] [-spy] [-certify] [-lanczos n] [-matrix name]
//
// With -matrix, only that system is reported; -spy adds an ASCII sparsity
// plot; -certify prints each system's admission certificate (convergence
// class, ρ(|B|) evidence, verdict, predicted iterations — see
// docs/CERTIFY.md); -short skips Trefethen_20000.
//
// Every report also states the detected sweep-kernel structure: for
// constant-coefficient stencil matrices the offset set, coefficient count
// and interior/boundary row split that the matrix-free fast path uses (see
// docs/KERNELS.md), or "none" when the packed-CSR kernel applies.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/certify"
	"repro/internal/experiments"
	"repro/internal/mats"
	"repro/internal/sparse"
)

func main() {
	short := flag.Bool("short", false, "skip Trefethen_20000")
	spy := flag.Bool("spy", false, "print ASCII sparsity plots (Figure 1)")
	cert := flag.Bool("certify", false, "print admission certificates (class, rho bounds, verdict, predicted iterations)")
	lanczos := flag.Int("lanczos", 200, "Lanczos steps for eigenvalue estimation")
	matrix := flag.String("matrix", "", "report a single matrix instead of the full table")
	seed := flag.Int64("seed", 1, "seed for randomized estimators")
	flag.Parse()

	if err := run(*short, *spy, *cert, *lanczos, *matrix, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "matinfo:", err)
		os.Exit(1)
	}
}

func run(short, spy, cert bool, lanczos int, matrix string, seed int64) error {
	if matrix != "" {
		p, err := experiments.Table1Properties(matrix, lanczos, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s (%s)\n  n=%d nnz=%d\n  cond(A)=%.3e cond(D^-1 A)=%.4g\n  rho(M)=%.4f rho(|M|)=%.4f\n",
			p.Name, p.Description, p.N, p.NNZ, p.CondA, p.CondDA, p.RhoM, p.RhoAbsM)
		if err := stencilOne(matrix, "  "); err != nil {
			return err
		}
		if cert {
			if err := certifyOne(matrix, seed); err != nil {
				return err
			}
		}
		if spy {
			return spyOne(matrix)
		}
		return nil
	}

	tab, err := experiments.Table1(short, lanczos, seed)
	if err != nil {
		return err
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nStencil structure (sparse.DetectStencil; docs/KERNELS.md):")
	for _, name := range mats.Names {
		if short && name == "Trefethen_20000" {
			continue
		}
		fmt.Printf("  %-16s", name)
		if err := stencilOne(name, " "); err != nil {
			return err
		}
	}
	if cert {
		fmt.Printf("\nAdmission certificates (certify.Certify, seed %d):\n", seed)
		for _, name := range mats.Names {
			if short && name == "Trefethen_20000" {
				continue
			}
			if err := certifyOne(name, seed); err != nil {
				return err
			}
		}
	}
	if spy {
		names := []string{"Chem97ZtZ", "fv1", "s1rmt3m1", "Trefethen_2000"}
		for _, n := range names {
			fmt.Printf("\nFigure 1: sparsity of %s\n", n)
			if err := spyOne(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// stencilOne reports whether a system has the constant-coefficient stencil
// structure the matrix-free kernel dispatches on, and if so its shape.
func stencilOne(name, indent string) error {
	tm, err := experiments.Matrix(name)
	if err != nil {
		return err
	}
	si, ok := sparse.DetectStencil(tm.A)
	if !ok {
		fmt.Printf("%sstencil: none (packed CSR path)\n", indent)
		return nil
	}
	fmt.Printf("%sstencil: %d-point, offsets %v, %d coeffs, %d interior / %d boundary rows (%.1f%% interior)\n",
		indent, len(si.Spec.Offsets), si.Spec.Offsets, len(si.Spec.Coeffs),
		si.InteriorRows, si.BoundaryRows, 100*si.InteriorFraction())
	return nil
}

// certifyOne prints one system's admission certificate.
func certifyOne(name string, seed int64) error {
	tm, err := experiments.Matrix(name)
	if err != nil {
		return err
	}
	c, err := certify.Certify(tm.A, certify.Options{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("  %-16s %s\n", name, c)
	return nil
}

func spyOne(name string) error {
	tm, err := experiments.Matrix(name)
	if err != nil {
		return err
	}
	return sparse.Spy(os.Stdout, tm.A, 64, 32)
}
