package grid

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace outlines")

// TestGoldenTraceOutline pins the trace *structure* of a canonical
// characterize→predict→simulate run on the two-level test grid: which
// spans open under which parents, which events carry which attribute
// keys, and in what order — the schema contract downstream tooling
// parses. The outline deliberately excludes attribute values and
// durations, so the golden file is stable across machines while any
// schema drift (renamed event, dropped attribute, reordered pipeline)
// fails the diff. Refresh with `go test ./internal/grid -run Golden
// -update` after intentional schema changes.
func TestGoldenTraceOutline(t *testing.T) {
	c := obs.New()
	opt := cheapOptions()
	opt.ProbeSizes = []int{32 << 10}
	opt.Trace = c
	topo := testTopo()
	pl, err := NewPlanner(topo, opt)
	if err != nil {
		t.Fatal(err)
	}
	pl.Predict(48 << 10)
	spec := pl.PlanSpec()
	if _, err := Run(topo, coll.Uniform(coll.KindAlltoall, 32<<10), HierGather,
		SimRun{Trace: c, Seed: opt.Seed, Warmup: 1, Reps: 1, Spec: &spec, Phases: true}); err != nil {
		t.Fatal(err)
	}

	got := strings.Join(c.Outline(), "\n") + "\n"
	golden := filepath.Join("testdata", "trace_outline.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("trace outline drifted from %s (run with -update if intended)\ngot %d lines, want %d\n%s",
			golden, strings.Count(got, "\n"), strings.Count(string(want), "\n"), firstDiff(got, string(want)))
	}

	// The same trace must round-trip the NDJSON schema.
	var buf bytes.Buffer
	if err := c.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateNDJSON(&buf)
	if err != nil {
		t.Fatalf("trace failed schema validation: %v", err)
	}
	if n == 0 {
		t.Fatal("trace is empty")
	}
}

// firstDiff renders the first differing line of two outlines.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first diff at line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return "outlines differ in length"
}

// TestPlannerProbeDiagnostics checks the satellite contract on Planner
// output: ProbeStats covers every (factor, probe size) pair with
// ordered dispersion whether or not tracing is enabled, and the traced
// and untraced planners agree on them.
func TestPlannerProbeDiagnostics(t *testing.T) {
	opt := cheapOptions()
	opt.ProbeSizes = []int{8 << 10, 64 << 10}
	plain, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace = obs.New()
	traced, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}

	// One γ_wan stat per (tier, size) plus ω and κ per size: the
	// two-level test grid has one tier, so 2 + 2 + 2.
	if got, want := len(plain.ProbeStats), 6; got != want {
		t.Fatalf("got %d probe stats, want %d: %+v", got, want, plain.ProbeStats)
	}
	for _, ps := range plain.ProbeStats {
		if ps.Min > ps.Median || ps.Median > ps.Max {
			t.Errorf("%s dispersion out of order: %+v", ps.Label(), ps)
		}
		if ps.Stage != "characterize" {
			t.Errorf("%s stage = %q, want characterize", ps.Label(), ps.Stage)
		}
	}
	if len(traced.ProbeStats) != len(plain.ProbeStats) {
		t.Fatalf("tracing changed probe stats: %d vs %d", len(traced.ProbeStats), len(plain.ProbeStats))
	}
	for i := range plain.ProbeStats {
		if plain.ProbeStats[i] != traced.ProbeStats[i] {
			t.Errorf("stat %d differs with tracing: %+v vs %+v", i, plain.ProbeStats[i], traced.ProbeStats[i])
		}
	}
	// Warnings, when any fire, must agree too — they derive from the
	// same probe times.
	if len(plain.Warnings) != len(traced.Warnings) {
		t.Errorf("tracing changed warnings: %d vs %d", len(plain.Warnings), len(traced.Warnings))
	}
	for _, w := range plain.Warnings {
		if w.HDMin > w.HDMax || w.HGMin > w.HGMax {
			t.Errorf("warning supports out of order: %+v", w)
		}
		if !strings.Contains(w.String(), "overlaps") {
			t.Errorf("warning text missing overlap description: %q", w.String())
		}
	}
}

// TestTracingDoesNotPerturbResults pins the zero-interference property:
// a traced characterization fits bit-identical curves and predictions
// to an untraced one — tracing only reads the simulated clock.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	opt := cheapOptions()
	plain, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Trace = obs.New()
	traced, err := NewPlanner(testTopo(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{8 << 10, 48 << 10, 256 << 10} {
		a, b := plain.Predict(m), traced.Predict(m)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("prediction %d at %d B differs with tracing: %+v vs %+v", i, m, a[i], b[i])
			}
		}
	}
}
