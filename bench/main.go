// Command bench is the repository's benchmark: seven workloads, from a
// paced LAN exchange to the warm planner service, each measured end to
// end in an untraced closed loop and layer by layer in a separate traced
// pass (see README.md in this directory).
//
//	go run ./bench                       every workload, both passes
//	go run ./bench -workload lan_gm_bulk -seed 2 -seconds 8 -trace 0
//	go run ./bench -out a.json           append this run to the set a.json
//	go run ./bench -compare a.json b.json
//
// With one workload named, the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics under -trace 0, the per-layer metrics under -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// run is one invocation's results: what -out appends and -compare reads.
type run struct {
	GoVersion  string    `json:"go_version"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Scale      float64   `json:"scale"`
	Seconds    float64   `json:"seconds"`
	Comparable bool      `json:"comparable"` // false at -scale ≠ 1 or under -reps
	Workloads  []*result `json:"workloads"`
}

// runSet is the content of an -out file: runs of one code version on one
// box, whose spread -compare measures.
type runSet struct {
	Runs []run `json:"runs"`
}

func main() {
	var (
		names   = flag.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = flag.Int64("seed", 1, "the only source of randomness in the input generator")
		seconds = flag.Float64("seconds", 8, "how long each workload's closed loop measures")
		trace   = flag.Int("trace", -1, "0: untraced pass only; 1: traced pass, per-layer metrics (default: both)")
		reps    = flag.Int("reps", 0, "measure exactly this many ops instead of -seconds (self-test; not comparable)")
		scale   = flag.Float64("scale", 1, "shrink node counts and sizes (self-test; results at scale ≠ 1 are not comparable)")
		out     = flag.String("out", "", "append this run's results to the set in this JSON file")
		spans   = flag.String("spans", "", "write the traced pass's bench-side spans to this JSON file at exit")
		summary = flag.Bool("summary", false, "print per-layer self time and the rung account per workload")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *scale <= 0 || *scale > 1 || *seconds <= 0 || *reps < 0 || *trace < -1 || *trace > 1 || flag.NArg() != 0 {
		fatal(fmt.Errorf("bad arguments: need 0 < -scale ≤ 1, -seconds > 0, -reps ≥ 0, -trace 0|1 and no positional arguments"))
	}

	selected, err := selectWorkloads(*names)
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{Seed: *seed, Scale: *scale, Seconds: *seconds, TraceSeconds: *seconds / 2, Reps: *reps, SetupReps: 3}
	switch *trace {
	case 0:
		cfg.TraceSeconds = 0
	case 1:
		// One budget covers both passes: the traced pass needs the
		// untraced median to state its own overhead.
		cfg.Seconds = *seconds / 2
	}
	if cfg.Reps > 0 {
		cfg.SetupReps = 1
	}

	r := run{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Scale: *scale, Seconds: *seconds, Comparable: *scale == 1 && *reps == 0,
	}
	fmt.Printf("bench: %s nproc=%d GOMAXPROCS=%d seed=%d scale=%g seconds=%g\n",
		r.GoVersion, r.NProc, r.GOMAXPROCS, r.Seed, r.Scale, r.Seconds)
	if !r.Comparable {
		fmt.Println("bench: -scale/-reps set: results are NOT comparable with the benchmark's")
	}
	var allSpans []span
	ok := true
	for _, w := range selected {
		res := w.Run(cfg)
		r.Workloads = append(r.Workloads, res)
		// Parent indexes are per workload; rebase them onto the joined list.
		base := len(allSpans)
		for _, sp := range res.spans {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			allSpans = append(allSpans, sp)
		}
		printResult(os.Stdout, res, *summary)
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := appendRun(*out, r); err != nil {
			fatal(err)
		}
	}
	if *spans != "" {
		if err := writeSpans(*spans, allSpans); err != nil {
			fatal(err)
		}
	}
	if len(selected) == 1 {
		if err := printDriverLine(os.Stdout, r.Workloads[0], *trace == 1); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func selectWorkloads(names string) ([]workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.Name() == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// printResult prints every metric of one workload by name, with its unit
// and the number of samples behind it.
func printResult(w io.Writer, res *result, summary bool) {
	fmt.Fprintf(w, "\n== %s: attempted=%d failed=%d failed_ops_pct=%.3f correct=%v\n",
		res.Workload, res.Attempted, res.Failed, 100*ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	fmt.Fprintf(w, "   sim_digest=%s\n", res.SimDigest)
	for _, m := range endToEnd {
		if s, ok := res.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "   %-34s %16.6g %-6s n=%d\n", m.Name, s.Value, s.Unit, s.N)
		}
	}
	for _, m := range perLayer {
		if s, ok := res.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "   %-34s %16.6g %-6s n=%d\n", m.Name, s.Value, s.Unit, s.N)
		}
	}
	for _, msg := range res.Warnings {
		fmt.Fprintf(w, "   warning: %s\n", msg)
	}
	for _, msg := range res.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", msg)
	}
	if summary && res.PerLayer != nil {
		writeSummary(w, res.Workload, res.spans)
		writeAccount(w, res)
	}
}

// writeAccount prints the stacked account of a LAN op: each rung's total
// at the op's own counts (a rung includes the work of the layers under
// it) and what the transport rung leaves for mpi and coll.
func writeAccount(w io.Writer, res *result) {
	l := func(name string) float64 { return res.PerLayer[name].Value }
	measure := l("coll.measure_s")
	if l("transport.rung_ns_per_kb") == 0 || measure == 0 {
		return
	}
	simS := l("sim.events_per_op") * l("sim.rung_ns_per_event") / 1e9
	netS := l("netsim.pkts_delivered_per_op") * l("netsim.rung_ns_per_pkt") / 1e9
	tpS := (1 - l("mpi.above_transport_share")) * measure
	fmt.Fprintf(w, "account %s: coll.Measure %.4fs; rungs at the op's counts: sim events %.4fs, netsim packets %.4fs, transport sends %.4fs; left for mpi+coll %.4fs\n",
		res.Workload, measure, simS, netS, tpS, measure-tpS)
}

// printDriverLine prints the one-line JSON the benchmark driver reads.
func printDriverLine(w io.Writer, res *result, traced bool) error {
	set := res.EndToEnd
	if traced {
		set = res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(set))
	for name, s := range set {
		metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// appendRun adds r to the run set stored at path, creating the file if
// it does not exist.
func appendRun(path string, r run) error {
	set, err := readRunSet(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	set.Runs = append(set.Runs, r)
	data, err := json.Marshal(set)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
