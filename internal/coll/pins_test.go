package coll

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// pinned is what two equivalent ways of running one exchange must agree
// on: the compiled plan (every message, phase, tag and payload), the
// per-phase trace and the finish time. The simulation is deterministic,
// so any divergence means the wire traffic differs.
type pinned struct {
	plan   string      // planFingerprint; "" for flat kernels
	spans  []PhaseSpan // nil for flat kernels and compile-only sides
	finish sim.Time
}

// TestCompilePins keeps every equivalence the one compile entry and the
// one payload rule rest on as a row of one table: the two sides of a row
// run on identically seeded grids and must match bit for bit.
//
//   - uniform-matrix: an All-to-Allv over a uniform matrix is the
//     uniform All-to-All — same plan and payloads on every tree shape,
//     same simulated execution.
//   - failover-empty-schedule: with no faults the failover runtime posts
//     the plain executor's operations in the same order (its extra
//     timeout timers fire as no-ops), so the phase trace matches to the
//     nanosecond.
//   - flat-uniform-matrix: the flat kernels size a pair through the
//     same rule, for both exchange patterns that take per-pair sizes.
func TestCompilePins(t *testing.T) {
	const m = 20_000
	const n = 6 // failoverGrid(3): two clusters of three
	uniform, matrix := Uniform(KindAlltoall, m), Irregular(UniformSizeMatrix(n, m))

	type side func(t *testing.T) pinned
	// finishOf runs op on every rank and returns when the last one
	// returned from it (World.Run's own result also waits out no-op
	// timers, which the failover runtime arms and the plain one does not).
	finishOf := func(g *cluster.Grid, op func(r *mpi.Rank)) sim.Time {
		var last sim.Time
		mpi.NewWorld(g.Env).Run(func(r *mpi.Rank) {
			op(r)
			last = max(last, r.Now())
		})
		return last
	}
	compiled := func(spec TreeSpec, w Workload, alg HierAlgorithm) side {
		return func(t *testing.T) pinned {
			return pinned{plan: planFingerprint(mustCompile(t, spec, w, alg))}
		}
	}
	planned := func(w Workload, alg HierAlgorithm, failover bool) side {
		return func(t *testing.T) pinned {
			g, spec := failoverGrid(t, n/2, 7)
			plan := mustCompile(t, spec, w, alg)
			pt := NewPhaseTrace(plan)
			op := func(r *mpi.Rank) { RunPlan(r, plan, pt) }
			var fr *FailoverRun
			if failover {
				fr = NewFailoverRun(plan, FailoverConfig{Timeout: 500 * sim.Millisecond})
				fr.SetTrace(pt)
				op = fr.Run
			}
			finish := finishOf(g, op)
			if failover {
				res := fr.Result()
				if res.Epochs != 1 || len(res.Dead) != 0 || res.Incomplete || res.DeliveredBlocks != n*(n-1) {
					t.Fatalf("no-fault run reports %+v", res)
				}
				if err := fr.Verify(); err != nil {
					t.Fatal(err)
				}
			}
			return pinned{plan: planFingerprint(plan), spans: pt.Spans(), finish: finish}
		}
	}
	flat := func(w Workload, alg Algorithm) side {
		return func(t *testing.T) pinned {
			g, _ := failoverGrid(t, n/2, 7)
			return pinned{finish: finishOf(g, func(r *mpi.Rank) { RunKindFlat(r, w, alg) })}
		}
	}

	type row struct {
		name string
		a, b side
	}
	var rows []row
	for _, alg := range HierAlgorithms {
		for ti, spec := range treeSpecs() {
			sz := UniformSizeMatrix(len(specRanks(spec)), m)
			rows = append(rows, row{fmt.Sprintf("uniform-matrix/tree%d/%v", ti, alg),
				compiled(spec, uniform, alg), compiled(spec, Irregular(sz), alg)})
		}
		rows = append(rows,
			row{fmt.Sprintf("uniform-matrix/run/%v", alg), planned(uniform, alg, false), planned(matrix, alg, false)},
			row{fmt.Sprintf("failover-empty-schedule/%v", alg), planned(uniform, alg, false), planned(uniform, alg, true)})
	}
	for _, alg := range []Algorithm{Direct, PostAll} {
		rows = append(rows, row{fmt.Sprintf("flat-uniform-matrix/%v", alg), flat(uniform, alg), flat(matrix, alg)})
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			a, b := r.a(t), r.b(t)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("sides diverge:\n--- a ---\n%+v\n--- b ---\n%+v", a, b)
			}
		})
	}
}
