// Package exp defines and runs the paper's evaluation: one experiment
// per figure (F2–F14), the signature parameter table (TA), the
// ablations listed in README.md (AB1–AB3), the extensions
// (EX1–EX3), and the grid experiments (GR1 two-level, GR2 3-level, GR3
// coordinator selection, GR4 irregular All-to-Allv, GR5 size-indexed
// factor curves, GR6 failover and replan resilience, GR7 the collective
// suite's sim-vs-model ranking agreement). Each experiment returns
// tabular Series that cmd/atabench prints and bench_test.go reports.
// F06–F14 and TA are views of one Section 7 fit (grid.FitLeaf) per row
// of the paperNets table, the single-cluster experiments measure through
// one helper, measure, and the grid experiments are case tables over one
// gridSweep.
//
// Experiments accept a Config whose Scale field shrinks grids and
// message sizes so the full suite stays affordable in CI; Scale = 1
// reproduces the paper's grids (message sweeps to 1.2 MB, up to 50
// processes).
package exp

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config controls experiment execution.
type Config struct {
	// Scale multiplies grid density and maximum message sizes; 1.0 is
	// the paper's scale. Values in (0, 1) shrink the grids.
	Scale float64
	// Reps is the measured repetitions per point, after one warmup
	// (the paper averaged 100 runs; simulation variance is lower, so
	// small values suffice). Zero takes DefaultConfig's value.
	Reps int
	// Seed drives every simulation in the experiment.
	Seed int64
	// Algorithm is the All-to-All implementation under test.
	// DefaultConfig and PaperConfig (and so atabench) use PostAll, the
	// nonblocking post-everything direct exchange of the LAM/MPICH
	// implementations the paper measured; the zero value is coll.Direct.
	Algorithm coll.Algorithm
	// Trace, when non-nil, collects the grid experiments' planner
	// characterization traces (see grid.Options.Trace); nil disables
	// tracing.
	Trace *obs.Collector
	// SimMode selects the simulation engine for the grid experiments'
	// planner characterizations (see grid.Options.SimMode): the default
	// sim.ModePacket, or sim.ModeFluid for analytic pricing of large
	// WAN transfers.
	SimMode sim.Mode
	// Coll, when non-empty, restricts the collective-suite experiment
	// (GR7) to one kind (a coll.ParseKind name, e.g. "allreduce");
	// empty runs GR7's default kind set.
	Coll string
}

// DefaultConfig is the CI-affordable configuration.
func DefaultConfig() Config {
	return Config{Scale: 0.25, Reps: 2, Seed: 1, Algorithm: coll.PostAll}
}

// PaperConfig reproduces the paper's grids.
func PaperConfig() Config {
	return Config{Scale: 1.0, Reps: 3, Seed: 1, Algorithm: coll.PostAll}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.Reps == 0 {
		c.Reps = d.Reps
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Series is one table of results: a name, column headers and rows.
type Series struct {
	Name string
	Cols []string
	Rows [][]float64
}

// Result is an executed experiment.
type Result struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}

// Note appends a formatted annotation to the result.
func (r *Result) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment couples an identifier with a runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) Result
}

// registry of all experiments, populated by init functions in the
// per-figure files.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// ---- shared helpers ----

// scaleSize scales a byte count, keeping at least 256 bytes.
func scaleSize(m int, scale float64) int {
	return scaleCount(m, scale, 256)
}

// scaleCount scales an integer count, keeping at least lo.
func scaleCount(n int, scale float64, lo int) int {
	return max(int(float64(n)*scale), lo)
}

// messageSweep returns the paper's message-size sweep (to 1.2 MB),
// scaled. It always contains enough points for a signature fit.
func messageSweep(scale float64) []int {
	return scaleSizes([]int{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10,
		256 << 10, 512 << 10, 768 << 10, 1 << 20, 1<<20 + 200<<10,
	}, scale)
}

// scaleSizes scales every byte count of base, sorted and without the
// duplicates the 256-byte floor can produce.
func scaleSizes(base []int, scale float64) []int {
	out := make([]int, len(base))
	for i, m := range base {
		out[i] = scaleSize(m, scale)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// measure runs op on a fresh n-node cluster of p seeded cfg.Seed +
// seedShift and returns its mean time over cfg.Reps after one warmup.
// Only AB2's timeout count measures inline.
func measure(p cluster.Profile, n int, cfg Config, seedShift int64, op func(r *mpi.Rank)) float64 {
	w := mpi.NewWorld(cluster.Build(p, n, cfg.Seed+seedShift))
	return coll.Measure(w, 1, cfg.Reps, op).Mean()
}

// alltoallPoint measures one cfg.Algorithm All-to-All of m bytes per
// peer on n nodes.
func alltoallPoint(p cluster.Profile, n, m int, cfg Config, seedShift int64) float64 {
	return measure(p, n, cfg, seedShift, func(r *mpi.Rank) { coll.Alltoall(r, m, cfg.Algorithm) })
}

// hockneyFor calibrates the Hockney parameters for a profile.
func hockneyFor(p cluster.Profile, cfg Config) model.Hockney {
	return calib.PingPong(p, mpi.Config{}, cfg.Seed, calib.PingPongConfig{Reps: 3})
}

// fitProfile runs the full Section 7 procedure for one network,
// grid.FitLeaf, with a cfg.Algorithm sweep over messageSweep at n′ = n.
func fitProfile(p cluster.Profile, n int, cfg Config) (grid.LeafFit, error) {
	return grid.FitLeaf(p, cfg.Algorithm, grid.Options{
		FitN: n, FitSizes: messageSweep(cfg.Scale), Reps: cfg.Reps, Seed: cfg.Seed})
}
