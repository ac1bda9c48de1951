package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// selfTestConfig is the benchmark at 1/8 scale with fixed op counts: one
// set-up (ending in its warm-up op), one measured op, one traced op.
func selfTestConfig(seed int64) runConfig {
	return runConfig{Seed: seed, Scale: 1.0 / 8, Reps: 1, SetupReps: 1, TraceSeconds: 1}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestManifestMatchesDeclarations pins BENCHMARK.json to the metric and
// workload declarations the program reports from, and to the limits of
// the benchmark contract.
func TestManifestMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not a valid metric or workload name", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is not valid", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	all := workloads()
	if len(m.Workloads) != len(all) || len(all) < 2 || len(all) > 8 {
		t.Fatalf("manifest lists %d workloads, program has %d, contract allows 2..8", len(m.Workloads), len(all))
	}
	for i, w := range all {
		checkName(w.Name(), "")
		if m.Workloads[i].Name != w.Name() || m.Workloads[i].Why != w.Why() {
			t.Errorf("workload %d: manifest has %q / %q, program has %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name(), w.Why())
		}
		if n := len(w.Why()); n == 0 || n > 200 || strings.Contains(w.Why(), "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name(), n)
		}
	}

	if len(m.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("manifest lists %d end-to-end metrics, program declares %d, contract allows 16", len(m.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		checkName(d.Name, d.Unit)
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: manifest %+v, declaration %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest lists %d per-layer metrics, program declares %d, contract allows 128", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name, d.Unit)
		g := m.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per_layer[%d]: manifest %+v, declaration %+v", i, g, d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds %d or paths %v outside the contract", m.RunSeconds, m.Paths)
	}
}

// TestWorkloadsAtSelfTestScale runs every workload three times at 1/8
// scale: twice with one seed, once with another. Every declared metric
// must be emitted, end-to-end values must be positive, one seed must
// reproduce its digest and exact counters, and another seed must not.
func TestWorkloadsAtSelfTestScale(t *testing.T) {
	for _, w := range workloads() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			t.Parallel()
			otherSeed := selfTestConfig(2)
			otherSeed.TraceSeconds = 0 // only its digest is needed
			a, b, other := w.Run(selfTestConfig(1)), w.Run(selfTestConfig(1)), w.Run(otherSeed)
			if !other.Correct {
				t.Fatalf("seed 2 run not correct: %v", other.Failures)
			}
			for _, r := range []*result{a, b} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("run not correct: attempted=%d failed=%d failures=%v", r.Attempted, r.Failed, r.Failures)
				}
				for _, d := range endToEnd {
					if s, ok := r.EndToEnd[d.Name]; !ok || !(s.Value > 0) || s.Unit != d.Unit || s.N < 1 {
						t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", d.Name, s, ok, d.Unit)
					}
				}
				for _, d := range perLayer {
					if s, ok := r.PerLayer[d.Name]; !ok || s.Unit != d.Unit {
						t.Errorf("per-layer %s = %+v (present %v), want a value in %s", d.Name, s, ok, d.Unit)
					}
				}
				if len(r.spans) == 0 {
					t.Error("traced pass recorded no span")
				}
			}
			if a.SimDigest != b.SimDigest {
				t.Errorf("one seed, two digests: %s vs %s", a.SimDigest, b.SimDigest)
			}
			if a.SimDigest == other.SimDigest {
				t.Errorf("seeds 1 and 2 share digest %s: the seed does not reach the inputs", a.SimDigest)
			}
			for _, d := range perLayer {
				if d.Exact && a.PerLayer[d.Name].Value != b.PerLayer[d.Name].Value {
					t.Errorf("exact counter %s: %v then %v on one seed", d.Name, a.PerLayer[d.Name].Value, b.PerLayer[d.Name].Value)
				}
			}
		})
	}
}

// TestFailedOpIsCounted damages one op's output and expects the checker
// to count it as failed.
func TestFailedOpIsCounted(t *testing.T) {
	cfg := selfTestConfig(1)
	cfg.Reps, cfg.TraceSeconds = 2, 0
	cfg.corrupt = func(i int, out *opOut) {
		if i == 1 {
			out.simS[0] = 0
		}
	}
	r := workloads()[2].Run(cfg)
	if r.Attempted != 2 || r.Failed != 1 || r.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want 2, 1, false", r.Attempted, r.Failed, r.Correct)
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "op_s_p50", Better: "lower", Bound: 0.10}
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := metric{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.020}
	for _, tc := range []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"within the bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.03, 1.04, 1.02}, vSame},
		{"slower past the bound", lower, []float64{1.00, 1.01, 0.99}, []float64{1.20, 1.21, 1.19}, vWorse},
		{"faster past the bound", lower, []float64{1.00, 1.01, 0.99}, []float64{0.80, 0.81, 0.79}, vBetter},
		{"throughput drop is worse", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, vWorse},
		{"throughput gain is better", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, vBetter},
		{"overlapping and wide", lower, []float64{1.00, 1.30, 0.90}, []float64{1.10, 0.95, 1.25}, vUnresolved},
		{"wide but every run slower", lower, []float64{1.00, 1.15, 0.90}, []float64{1.40, 1.60, 1.30}, vWorse},
		{"tiny set-up inside the floor", setup, []float64{0.010, 0.011, 0.010}, []float64{0.020, 0.021, 0.020}, vSame},
	} {
		if got, _, _ := judge(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFiles checks the rows -compare prints for a slower
// candidate whose simulated results also moved.
func TestCompareFiles(t *testing.T) {
	mk := func(opS float64, digest string, events float64) run {
		return run{Seed: 1, Scale: 1, Comparable: true, Workloads: []*result{{
			Workload: "w", Correct: true, SimDigest: digest,
			EndToEnd: metricSet{"op_s_p50": {Value: opS, Unit: "s", N: 5}},
			PerLayer: metricSet{"sim.events_per_op": {Value: events, Unit: "count", N: 1}},
		}}}
	}
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, v := range []float64{1.00, 1.01, 0.99} {
		if err := appendRun(pa, mk(v, "d1", 100)); err != nil {
			t.Fatal(err)
		}
		if err := appendRun(pb, mk(v*1.3, "d2", 90)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	worse, err := compareFiles(&buf, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !worse || !strings.Contains(out, vWorse) || strings.Count(out, vChanged) != 2 {
		t.Errorf("worse=%v, want a worse row and two changed rows (digest, exact counters) in:\n%s", worse, out)
	}
	buf.Reset()
	if worse, err = compareFiles(&buf, pa, pa); err != nil || worse || strings.Contains(buf.String(), vChanged) {
		t.Errorf("a set against itself: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", StartNS: 0, EndNS: 100, Parent: -1},
		{Name: "cluster.build", StartNS: 0, EndNS: 10, Parent: 0},
		{Name: "coll.measure", StartNS: 10, EndNS: 90, Parent: 0},
	}
	self := selfTimes(spans)
	if self["bench"] != 10e-9 || self["cluster"] != 10e-9 || self["coll"] != 80e-9 {
		t.Errorf("self times %v, want bench 10ns, cluster 10ns, coll 80ns", self)
	}
}
