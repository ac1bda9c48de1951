package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// verdicts of -compare, one per (workload, metric) row.
const (
	vSame       = "same"
	vWorse      = "worse"
	vBetter     = "better"
	vUnresolved = "unresolved" // spread wider than the bound
	vChanged    = "changed"    // an exact counter or digest moved: no direction
)

// setData is a run set regrouped for comparison.
type setData struct {
	order []string // workloads, first seen first
	// e2e[workload][metric] holds one value per run.
	e2e map[string]map[string][]float64
	// pinned[workload]["seed S name"] holds, per run, the values that must
	// repeat bit for bit on one seed: sim_digest and the exact counters.
	pinned map[string]map[string][]string
}

// loadSet reads a run set. Runs marked non-comparable are refused: a
// scaled run measures different inputs.
func loadSet(path string) (*setData, error) {
	set, err := readRunSet(path)
	if err != nil {
		return nil, err
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	exact := map[string]bool{}
	for _, m := range perLayer {
		exact[m.Name] = m.Exact
	}
	d := &setData{e2e: map[string]map[string][]float64{}, pinned: map[string]map[string][]string{}}
	for _, r := range set.Runs {
		if !r.Comparable {
			return nil, fmt.Errorf("%s: holds a run at -scale %g or under -reps: not comparable", path, r.Scale)
		}
		for _, w := range r.Workloads {
			if d.e2e[w.Workload] == nil {
				d.order = append(d.order, w.Workload)
				d.e2e[w.Workload] = map[string][]float64{}
				d.pinned[w.Workload] = map[string][]string{}
			}
			for name, s := range w.EndToEnd {
				d.e2e[w.Workload][name] = append(d.e2e[w.Workload][name], s.Value)
			}
			pin := func(name, v string) {
				key := fmt.Sprintf("seed %d %s", r.Seed, name)
				d.pinned[w.Workload][key] = append(d.pinned[w.Workload][key], v)
			}
			pin("sim_digest", w.SimDigest)
			for name, s := range w.PerLayer {
				if exact[name] {
					pin(name, strconv.FormatFloat(s.Value, 'g', -1, 64))
				}
			}
		}
	}
	return d, nil
}

// spread is the run-to-run width of a set's values as a share of their
// median: the interquartile distance with four or more runs, the full
// range with fewer.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) < 2 {
		return 0
	}
	if len(xs) < 4 {
		return (stats.Max(xs) - stats.Min(xs)) / math.Abs(med)
	}
	return (stats.Quantile(xs, 0.75) - stats.Quantile(xs, 0.25)) / math.Abs(med)
}

// judge applies one end-to-end metric's bound and direction to the
// values of sets a (baseline) and b (candidate). worseBy is positive
// when b is worse.
func judge(m metric, a, b []float64) (verdict string, worseBy, widest float64) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worseBy = sign * (mb - ma) / math.Abs(ma)
	widest = math.Max(spread(a), spread(b))
	bound := m.Bound
	if m.Floor > 0 && ma != 0 {
		bound = math.Max(bound, m.Floor/math.Abs(ma))
	}
	// Every run of b on one side of every run of a resolves the row
	// however wide the spread.
	apart := func(dir float64) bool {
		for _, x := range a {
			for _, y := range b {
				if dir*sign*(y-x) <= 0 {
					return false
				}
			}
		}
		return true
	}
	switch {
	case widest > bound && !apart(1) && !apart(-1):
		return vUnresolved, worseBy, widest
	case worseBy > bound:
		return vWorse, worseBy, widest
	case -worseBy > bound:
		return vBetter, worseBy, widest
	}
	return vSame, worseBy, widest
}

// compareFiles prints one row per (workload, end-to-end metric), then per
// workload one row for sim_digest and one for the exact counters, and
// reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-20s %-10s %12s %12s %9s %8s %6s\n", "workload", "metric", "verdict", "a_median", "b_median", "worse_by", "spread", "bound")
	for _, wl := range a.order {
		if b.e2e[wl] == nil {
			fmt.Fprintf(w, "%-16s missing from %s\n", wl, pathB)
			continue
		}
		for _, m := range endToEnd {
			va, vb := a.e2e[wl][m.Name], b.e2e[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worseBy, widest := judge(m, va, vb)
			anyWorse = anyWorse || v == vWorse
			fmt.Fprintf(w, "%-16s %-20s %-10s %12.6g %12.6g %+8.2f%% %7.2f%% %5.0f%%\n",
				wl, m.Name, v, median(va), median(vb), 100*worseBy, 100*widest, 100*m.Bound)
		}
		comparePinned(w, wl, a.pinned[wl], b.pinned[wl])
	}
	return anyWorse, nil
}

// comparePinned prints a workload's sim_digest row and exact-counter row,
// judged seed by seed over the seeds both sets ran, and lists each
// counter that moved.
func comparePinned(w io.Writer, wl string, a, b map[string][]string) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	shared, digestSame := 0, true
	var moved []string
	for _, k := range keys {
		vb, ok := b[k]
		if !ok {
			continue
		}
		shared++
		switch {
		case allEqual(append(append([]string(nil), a[k]...), vb...)):
		case strings.HasSuffix(k, " sim_digest"):
			digestSame = false
		default:
			moved = append(moved, fmt.Sprintf("%s: %s → %s", k, a[k][0], vb[len(vb)-1]))
		}
	}
	if shared == 0 {
		fmt.Fprintf(w, "%-16s %-20s not compared: the sets share no seed\n", wl, "sim_digest, exact")
		return
	}
	verdict := map[bool]string{true: vSame, false: vChanged}
	fmt.Fprintf(w, "%-16s %-20s %s\n", wl, "sim_digest", verdict[digestSame])
	fmt.Fprintf(w, "%-16s %-20s %s\n", wl, "exact counters", verdict[len(moved) == 0])
	for _, line := range moved {
		fmt.Fprintf(w, "%-16s   %s\n", "", line)
	}
}

func allEqual(xs []string) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
