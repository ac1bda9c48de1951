// Command predict evaluates the paper's performance models for an
// All-to-All of n processes and message size m, given a contention
// signature (γ, δ, M) and Hockney parameters — the deployment-time use
// case of the paper: predict collective cost on a network you have
// characterized once.
//
// Usage:
//
//	predict -alpha 46.8e-6 -beta 8.44e-9 -gamma 4.36 -delta 4.93e-3 -M 8192 -n 40 -m 1048576
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/model"
)

func main() {
	var (
		alpha = flag.Float64("alpha", 0, "Hockney α (s)")
		beta  = flag.Float64("beta", 0, "Hockney β (s/B)")
		gamma = flag.Float64("gamma", 1, "contention ratio γ")
		delta = flag.Float64("delta", 0, "start-up overload δ (s)")
		mThr  = flag.Int("M", 0, "δ activation threshold (bytes)")
		n     = flag.Int("n", 0, "process count")
		m     = flag.Int("m", 0, "message size (bytes)")
	)
	flag.Parse()
	h := model.Hockney{Alpha: *alpha, Beta: *beta}
	sig := model.Signature{H: h, Gamma: *gamma, Delta: *delta, M: *mThr}
	if err := checkFlags(sig, *n, *m); err != nil {
		fmt.Fprintf(os.Stderr, "predict: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("hockney:             %s\n", h)
	fmt.Printf("signature:           %s\n", sig)
	fmt.Printf("lower bound:         %.6fs\n", model.LowerBound(h, *n, *m))
	fmt.Printf("naive eq.(1):        %.6fs\n", model.Naive{H: h}.Predict(*n, *m))
	fmt.Printf("clement eq.(2):      %.6fs\n", model.Clement{H: h}.Predict(*n, *m))
	fmt.Printf("signature eq.(5):    %.6fs\n", sig.Predict(*n, *m))
}

// checkFlags rejects parameters no prediction is meaningful for: α and
// β must be finite and positive, γ finite and at least 1 (nothing beats
// the lower bound), δ finite and non-negative, M non-negative, and the
// exchange needs two ranks and a non-empty message.
func checkFlags(sig model.Signature, n, m int) error {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	switch {
	case !finite(sig.H.Alpha) || sig.H.Alpha <= 0:
		return fmt.Errorf("-alpha must be a positive finite number, got %v", sig.H.Alpha)
	case !finite(sig.H.Beta) || sig.H.Beta <= 0:
		return fmt.Errorf("-beta must be a positive finite number, got %v", sig.H.Beta)
	case !finite(sig.Gamma) || sig.Gamma < 1:
		return fmt.Errorf("-gamma must be a finite number of at least 1, got %v", sig.Gamma)
	case !finite(sig.Delta) || sig.Delta < 0:
		return fmt.Errorf("-delta must be a finite non-negative number, got %v", sig.Delta)
	case sig.M < 0:
		return fmt.Errorf("-M must be non-negative, got %d", sig.M)
	case n < 2:
		return fmt.Errorf("-n must be at least 2, got %d", n)
	case m <= 0:
		return fmt.Errorf("-m must be at least 1 byte, got %d", m)
	}
	return nil
}
