// Command atabench runs the paper-reproduction experiments (one per
// figure, plus the signature table, the ablations, and the grid
// prediction-vs-simulation experiments GR1–GR7) and prints their data
// series.
//
// Usage:
//
//	atabench -list
//	atabench -exp F09                 # one experiment, CI scale
//	atabench -exp F09 -full           # paper-scale grids (slow)
//	atabench -exp GR7 -coll allreduce # collective suite, one kind
//	atabench -all -scale 0.25 -csv
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/coll"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		expID    = flag.String("exp", "", "experiment id to run (e.g. F09, TA, AB2)")
		all      = flag.Bool("all", false, "run every experiment")
		full     = flag.Bool("full", false, "paper-scale grids (slow)")
		scale    = flag.Float64("scale", 0, "explicit scale factor (overrides -full)")
		reps     = flag.Int("reps", 0, "repetitions per point")
		seed     = flag.Int64("seed", 0, "simulation seed")
		csv      = flag.Bool("csv", false, "CSV output instead of aligned tables")
		alg      = flag.String("alg", "postall", "alltoall algorithm: direct|postall|bruck|pairwise")
		trace    = flag.String("trace", "", "write an NDJSON observability trace of the grid experiments' planner runs to this file")
		simMode  = flag.String("sim", "packet", "simulation engine for grid planner characterizations: packet|fluid")
		collKind = flag.String("coll", "", "restrict the collective-suite experiment (GR7) to one kind: allgather|broadcast|reduce|reduce-scatter|allreduce")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if err := checkFlags(*scale, *reps); err != nil {
		fmt.Fprintf(os.Stderr, "atabench: %v\n", err)
		os.Exit(2)
	}
	cfg := exp.DefaultConfig()
	if *full {
		cfg = exp.PaperConfig()
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *trace != "" {
		cfg.Trace = obs.New()
	}
	mode, err := sim.ParseMode(*simMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atabench: %v\n", err)
		os.Exit(2)
	}
	cfg.SimMode = mode
	if *collKind != "" {
		if _, err := coll.ParseKind(*collKind); err != nil {
			fmt.Fprintf(os.Stderr, "atabench: %v\n", err)
			os.Exit(2)
		}
		cfg.Coll = *collKind
	}
	switch *alg {
	case "direct":
		cfg.Algorithm = coll.Direct
	case "postall":
		cfg.Algorithm = coll.PostAll
	case "bruck":
		cfg.Algorithm = coll.Bruck
	case "pairwise":
		cfg.Algorithm = coll.Pairwise
	default:
		fmt.Fprintf(os.Stderr, "atabench: unknown algorithm %q\n", *alg)
		os.Exit(2)
	}

	var toRun []exp.Experiment
	switch {
	case *all:
		toRun = exp.All()
	case *expID != "":
		e, err := exp.ByID(*expID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atabench: %v (use -list)\n", err)
			os.Exit(2)
		}
		toRun = []exp.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "atabench: need -exp <id>, -all or -list")
		os.Exit(2)
	}

	for _, e := range toRun {
		res := e.Run(cfg)
		if *csv {
			exp.WriteCSV(os.Stdout, res)
		} else {
			exp.WriteText(os.Stdout, res)
		}
		fmt.Println()
	}

	if cfg.Trace != nil {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atabench: %v\n", err)
			os.Exit(1)
		}
		if err := cfg.Trace.WriteNDJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "atabench: writing trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "atabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("observability trace (%d events) written to %s\n", len(cfg.Trace.Events()), *trace)
	}
}

// checkFlags rejects a scale or repetition count the run would otherwise
// drop silently: 0 keeps the configuration's value, anything else must
// be a usable positive number.
func checkFlags(scale float64, reps int) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("-scale must be a positive finite number (0 keeps the default), got %v", scale)
	}
	if reps < 0 {
		return fmt.Errorf("-reps must be positive (0 keeps the default), got %d", reps)
	}
	return nil
}
