// Command sigfit fits a contention signature (γ, δ, M) from All-to-All
// measurements. It either reads samples from a CSV file (columns:
// msg_bytes,time_s) together with explicit Hockney parameters, or runs
// the full in-simulator Section 7 procedure, grid.FitLeaf, for a named
// cluster profile. The fit is ordinary least squares (every sample
// weighted equally).
//
// Usage:
//
//	sigfit -profile gigabit-ethernet -n 40          # simulate + fit
//	sigfit -csv samples.csv -alpha 46.8e-6 -beta 8.44e-9 -n 40
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/signature"
)

func main() {
	var (
		profile = flag.String("profile", "", "cluster profile to simulate and fit")
		n       = flag.Int("n", 24, "process count n' of the samples")
		csvPath = flag.String("csv", "", "CSV file with msg_bytes,time_s samples")
		alpha   = flag.Float64("alpha", 0, "Hockney α (s), required with -csv")
		beta    = flag.Float64("beta", 0, "Hockney β (s/B), required with -csv")
		fixedM  = flag.Int("M", 0, "fix the δ threshold instead of scanning")
		seed    = flag.Int64("seed", 1, "simulation seed (profile mode)")
	)
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"usage: sigfit -profile NAME | -csv FILE -alpha A -beta B [flags]\n"+
				"Fits the contention signature (γ, δ, M) by ordinary least squares.")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := checkFlags(*n); err != nil {
		fmt.Fprintf(os.Stderr, "sigfit: %v\n", err)
		os.Exit(2)
	}

	var h model.Hockney
	var samples []signature.Sample

	switch {
	case *csvPath != "":
		if *alpha <= 0 || *beta <= 0 {
			fmt.Fprintln(os.Stderr, "sigfit: -csv requires -alpha and -beta")
			os.Exit(2)
		}
		h = model.Hockney{Alpha: *alpha, Beta: *beta}
		var err error
		samples, err = readSamples(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigfit: %v\n", err)
			os.Exit(1)
		}
	case *profile != "":
		p, err := cluster.ByName(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigfit: %v\n", err)
			os.Exit(2)
		}
		lf, err := grid.FitLeaf(p, coll.PostAll, grid.Options{
			FitN:     *n,
			FitSizes: []int{16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20},
			Reps:     2,
			Seed:     *seed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sigfit: %v\n", err)
			os.Exit(1)
		}
		h, samples = lf.Hockney, lf.Samples
		fmt.Printf("calibrated hockney: %s\n", h)
		for _, s := range samples {
			fmt.Printf("measured n=%d m=%d: %.6fs\n", *n, s.M, s.T)
		}
	default:
		fmt.Fprintln(os.Stderr, "sigfit: need -profile or -csv (see -h)")
		os.Exit(2)
	}

	sig, rep, err := signature.Fit(h, *n, samples, signature.Options{FixedM: *fixedM})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sigfit: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nsignature: %s\n", sig)
	fmt.Printf("fit MAPE: %.2f%%  weighted SSE: %.4g\n", rep.MAPE*100, rep.SSE)
	fmt.Println("\npredictions:")
	for _, pn := range []int{8, 16, 24, 40, 64} {
		fmt.Printf("  n=%2d m=1MB: %.4fs\n", pn, sig.Predict(pn, 1<<20))
	}
}

// checkFlags rejects a process count no All-to-All can be fitted at: the
// exchange needs at least two ranks.
func checkFlags(n int) error {
	if n < 2 {
		return fmt.Errorf("-n must be at least 2, got %d", n)
	}
	return nil
}

// readSamples parses "msg_bytes,time_s" lines, skipping comments.
func readSamples(path string) ([]signature.Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []signature.Sample
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "msg") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("bad line %q", line)
		}
		m, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("bad size in %q: %v", line, err)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad time in %q: %v", line, err)
		}
		out = append(out, signature.Sample{M: m, T: t})
	}
	return out, sc.Err()
}
