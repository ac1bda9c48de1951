package exp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/grid"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/{lan,gr}_tiny.golden")

// TestMain widens the GC pacing band for the package's tests. The
// golden tables' parallel subtests share one heap whose live part is a
// few MB, so default pacing collects every few MB of the simulators'
// garbage and each cycle stops every subtest: on a 2-core host that
// made the parallel grid run slower (45 s) than the sequential one
// (43 s). A wider pacing band makes it 30 s; allocating less per packet
// (ROADMAP item 6) is the real fix.
func TestMain(m *testing.M) {
	debug.SetGCPercent(400)
	os.Exit(m.Run())
}

// tinyConfig keeps experiment tests affordable.
func tinyConfig() Config {
	return Config{Scale: 0.05, Reps: 1, Seed: 3}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"AB1", "AB2", "AB3",
		"EX1", "EX2", "EX3",
		"F02", "F03", "F04", "F05", "F06", "F07", "F08",
		"F09", "F10", "F11", "F12", "F13", "F14", "GR1", "GR2", "GR3", "GR4", "GR5", "GR6", "GR7", "TA",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("F09"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestMessageSweepScaling(t *testing.T) {
	full := messageSweep(1.0)
	if len(full) < 8 {
		t.Fatalf("full sweep too small: %v", full)
	}
	if full[len(full)-1] != 1<<20+200<<10 {
		t.Fatalf("full sweep must reach 1.2MB, got %d", full[len(full)-1])
	}
	small := messageSweep(0.05)
	if small[len(small)-1] >= full[len(full)-1] {
		t.Fatal("scaled sweep not smaller")
	}
	for i := 1; i < len(small); i++ {
		if small[i] <= small[i-1] {
			t.Fatalf("sweep not strictly increasing: %v", small)
		}
	}
}

func TestScaleHelpers(t *testing.T) {
	if scaleSize(1<<20, 0.5) != 1<<19 {
		t.Fatal("scaleSize wrong")
	}
	if scaleSize(100, 0.001) != 256 {
		t.Fatal("scaleSize floor wrong")
	}
	if scaleCount(40, 0.25, 8) != 10 {
		t.Fatal("scaleCount wrong")
	}
	if scaleCount(40, 0.1, 8) != 8 {
		t.Fatal("scaleCount floor wrong")
	}
}

// goldenSections splits concatenated WriteCSV output into one block per
// experiment, keyed by the ID in each series' "# <ID> <title> <series>"
// header.
func goldenSections(data string) map[string]string {
	out := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(data, "\n") {
		if strings.HasPrefix(line, "# ") {
			id = strings.Fields(line)[1]
		}
		out[id] += line
	}
	return out
}

// goldenCase is one experiment of a golden table and the shape
// assertions its Result must pass besides the byte-for-byte compare (nil
// when the golden is the whole check).
type goldenCase struct {
	id    string
	check func(t *testing.T, res Result)
}

// runGolden runs every case once at tinyConfig and feeds the one Result
// to both the case's check and a byte-for-byte compare of its WriteCSV
// output, followed by its notes as "## <note>" lines, against its
// section of testdata/<file>. The experiments share
// no mutable state (own cluster or topology, planner, nil collector), so
// they run as parallel subtests, and the golden tables run in parallel
// with each other. With -update the file is rewritten in case order
// instead.
func runGolden(t *testing.T, file string, cases []goldenCase) {
	t.Parallel()
	golden := filepath.Join("testdata", file)
	data, err := os.ReadFile(golden)
	if err != nil && !*updateGolden {
		t.Fatalf("%v (run with -update to create)", err)
	}
	want := goldenSections(string(data))
	got := make([]string, len(cases))
	t.Run("sweep", func(t *testing.T) {
		for i, tc := range cases {
			i, tc := i, tc // go.mod is go 1.21: per-loop variables
			t.Run(tc.id, func(t *testing.T) {
				t.Parallel()
				e, err := ByID(tc.id)
				if err != nil {
					t.Fatal(err)
				}
				res := e.Run(tinyConfig())
				if len(res.Series) == 0 {
					t.Fatalf("no series: notes=%v", res.Notes)
				}
				if tc.check != nil {
					tc.check(t, res)
				}
				var buf bytes.Buffer
				WriteCSV(&buf, res)
				for _, n := range res.Notes {
					fmt.Fprintf(&buf, "## %s\n", n)
				}
				got[i] = buf.String()
				if !*updateGolden && got[i] != want[tc.id] {
					t.Errorf("CSV drifted from %s (run with -update if intended)\ngot:\n%swant:\n%s",
						golden, got[i], want[tc.id])
				}
			})
		}
	})
	if *updateGolden && !t.Failed() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLANExperimentRuns pins every single-cluster experiment — the
// figures F02–F14, the signature table TA, the ablations AB1–AB3 and the
// extensions EX1–EX3 — against testdata/lan_tiny.golden, so a refactor
// under them (calibration, fitting, the mpi runtime's constants) must
// reproduce every CSV cell and note at CI scale. F12 (Myrinet, the fastest
// profile) also carries the fit shape checks. Refresh with `go test
// ./internal/exp -run TestLANExperimentRuns -update` after an
// intentional model or simulator change.
func TestLANExperimentRuns(t *testing.T) {
	var cases []goldenCase
	for _, id := range []string{
		"F02", "F03", "F04", "F05", "F06", "F07", "F08", "F09", "F10", "F11", "F12", "F13", "F14",
		"TA", "AB1", "AB2", "AB3", "EX1", "EX2", "EX3",
	} {
		c := goldenCase{id: id}
		if id == "F12" {
			c.check = checkFitShape
		}
		cases = append(cases, c)
	}
	runGolden(t, "lan_tiny.golden", cases)
}

// checkFitShape asserts a signature-fit experiment's measured curve: at
// least four points, positive times, none implausibly below the lower
// bound, and the fitted signature in the notes.
func checkFitShape(t *testing.T, res Result) {
	s := res.Series[0]
	if len(s.Rows) < 4 {
		t.Fatalf("too few rows: %d", len(s.Rows))
	}
	for _, row := range s.Rows {
		measured, lb := row[1], row[2]
		if measured <= 0 || lb <= 0 {
			t.Fatalf("nonpositive times in row %v", row)
		}
		if measured < lb*0.8 {
			t.Fatalf("measured %v implausibly below lower bound %v", measured, lb)
		}
	}
	if !strings.Contains(strings.Join(res.Notes, "\n"), "signature") {
		t.Fatalf("notes missing signature: %v", res.Notes)
	}
}

// TestGridExperimentRuns runs every grid validation sweep once at
// tinyConfig against testdata/gr_tiny.golden — predicted, simulated and
// signed error for every (topology, workload, strategy) cell at CI
// scale, generated before the experiments were folded into gridSweep —
// and checks each series' prediction and simulation columns and its
// characterization note. GR6 (~45 s even here) is pinned by the chaos
// CI job against gr6_tiny.golden instead. Refresh with `go test
// ./internal/exp -run TestGridExperimentRuns -update` after an
// intentional model or simulator change.
func TestGridExperimentRuns(t *testing.T) {
	var cases []goldenCase
	for _, tc := range []struct{ id, wantNote string }{
		{"GR1", "WAN"}, {"GR2", "tier"}, {"GR3", "coordinator"},
		{"GR4", "patterns"}, {"GR5", "scalar"}, {"GR7", "kinds"},
	} {
		wantNote := tc.wantNote
		cases = append(cases, goldenCase{id: tc.id, check: func(t *testing.T, res Result) {
			s := res.Series[0]
			if len(s.Rows) == 0 {
				t.Fatal("empty prediction-vs-simulation series")
			}
			predCol, simCol := -1, -1
			for i, c := range s.Cols {
				switch c {
				case "predicted_s", "pred_curve_s":
					predCol = i
				case "simulated_s":
					simCol = i
				}
			}
			if predCol < 0 || simCol < 0 {
				t.Fatalf("series lacks predicted_s/simulated_s columns: %v", s.Cols)
			}
			for _, row := range s.Rows {
				if row[predCol] <= 0 || row[simCol] <= 0 {
					t.Fatalf("nonpositive times in row %v", row)
				}
			}
			if !strings.Contains(strings.Join(res.Notes, "\n"), wantNote) {
				t.Fatalf("notes missing characterization %q: %v", wantNote, res.Notes)
			}
		}})
	}
	runGolden(t, "gr_tiny.golden", cases)
}

// TestStrategyLegendFollowsStrategies pins the legend to the strategies
// actually swept: GR7 -coll alltoall printed strat_idx 2 rows under a
// hard-coded two-strategy legend.
func TestStrategyLegendFollowsStrategies(t *testing.T) {
	const flatAndHier = "strategies: 0=flat-direct 1=hier-gather"
	for kind, want := range map[coll.Kind]string{
		coll.KindAlltoall:  flatAndHier + " 2=hier-direct",
		coll.KindAllreduce: flatAndHier,
	} {
		if got := strategyLegend(grid.StrategiesFor(kind)); got != want {
			t.Errorf("%v legend = %q, want %q", kind, got, want)
		}
	}
}

// TestJudgeFailedSimulations pins the one rule for failed validation
// runs: no successful simulation skips the case (GR1/GR2 used to print
// "simulation preferred Strategy(-1)" and still count it), a failed
// strategy is left out of the ranking, and only GR7's tolerance turns a
// near miss into a tie.
func TestJudgeFailedSimulations(t *testing.T) {
	flat, hg, hd := grid.FlatDirect, grid.HierGather, grid.HierDirect
	for _, tc := range []struct {
		name  string
		pick  grid.Strategy
		cells []simCell
		tol   float64
		want  outcome
		note  string
	}{
		{"empty", hg, nil, 0, skipped, "no successful simulations, case skipped"},
		{"all ran, pick fastest", hg, []simCell{{flat, 3}, {hg, 1}, {hd, 2}}, 0, agree, "planner and simulation agree on hier-gather"},
		{"fastest failed, pick wins the rest", hd, []simCell{{flat, 3}, {hd, 2}}, 0, agree, "planner and simulation agree on hier-direct"},
		{"pick failed", hg, []simCell{{flat, 3}, {hd, 2}}, 0.03, disagree, "planner picked hier-gather, simulation preferred hier-direct"},
		{"near miss, exact argmin", hg, []simCell{{flat, 1}, {hg, 1.02}}, 0, disagree, "planner picked hier-gather, simulation preferred flat-direct"},
		{"near miss, 3% regret", hg, []simCell{{flat, 1}, {hg, 1.02}}, 0.03, tied, "planner picked hier-gather, statistically tied with simulation's flat-direct (2.0% apart)"},
	} {
		got, note := judge(tc.pick, tc.cells, tc.tol)
		if got != tc.want || note != tc.note {
			t.Errorf("%s: judge = %v %q, want %v %q", tc.name, got, note, tc.want, tc.note)
		}
	}
}

func TestRenderText(t *testing.T) {
	r := Result{
		ID: "X", Title: "demo",
		Series: []Series{{
			Name: "s",
			Cols: []string{"a", "b"},
			Rows: [][]float64{{1, 2.5}, {3, 4.25}},
		}},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	WriteText(&buf, r)
	out := buf.String()
	for _, want := range []string{"X", "demo", "a", "b", "2.5", "4.25", "# hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	WriteCSV(&buf, r)
	if !strings.Contains(buf.String(), "a,b") || !strings.Contains(buf.String(), "1,2.5") {
		t.Fatalf("csv output wrong:\n%s", buf.String())
	}
}

func TestFormatCell(t *testing.T) {
	if formatCell(42) != "42" {
		t.Fatalf("int formatting: %s", formatCell(42))
	}
	if formatCell(0.125) != "0.125" {
		t.Fatalf("float formatting: %s", formatCell(0.125))
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale <= 0 || cfg.Reps <= 0 || cfg.Seed == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	p := PaperConfig()
	if p.Scale != 1.0 {
		t.Fatal("paper config must be full scale")
	}
}

// TestDefaultAlgorithmIsPostAll pins the library's default All-to-All to
// atabench's -alg default, so the root benchmarks and the CLI measure
// the same exchange.
func TestDefaultAlgorithmIsPostAll(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "paper": PaperConfig()} {
		if cfg.Algorithm != coll.PostAll {
			t.Errorf("%s config runs %v, want %v", name, cfg.Algorithm, coll.PostAll)
		}
	}
}
