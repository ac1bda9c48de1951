package coll

import (
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Measurement holds the timings of repeated executions of a collective.
type Measurement struct {
	Times []sim.Time // one global makespan per repetition
}

// Mean returns the average completion time in seconds.
func (m Measurement) Mean() float64 {
	if len(m.Times) == 0 {
		return 0
	}
	var sum float64
	for _, t := range m.Times {
		sum += t.Seconds()
	}
	return sum / float64(len(m.Times))
}

// Measure times reps executions of op across all ranks of w, separated by
// barriers, after warmup unmeasured executions (which also warm TCP
// congestion windows, as the paper's repeated measurements did). The
// makespan of a repetition is the interval from the earliest rank start
// to the latest rank finish — the paper's definition of completion time.
func Measure(w *mpi.World, warmup, reps int, op func(r *mpi.Rank)) Measurement {
	n := w.Size()
	starts := make([][]sim.Time, reps)
	ends := make([][]sim.Time, reps)
	for i := range starts {
		starts[i] = make([]sim.Time, n)
		ends[i] = make([]sim.Time, n)
	}
	w.Run(func(r *mpi.Rank) {
		for i := 0; i < warmup; i++ {
			r.Barrier()
			op(r)
		}
		for i := 0; i < reps; i++ {
			r.Barrier()
			starts[i][r.ID()] = r.Now()
			op(r)
			ends[i][r.ID()] = r.Now()
		}
	})
	out := Measurement{Times: make([]sim.Time, reps)}
	for i := 0; i < reps; i++ {
		minStart, maxEnd := starts[i][0], ends[i][0]
		for k := 1; k < n; k++ {
			if starts[i][k] < minStart {
				minStart = starts[i][k]
			}
			if ends[i][k] > maxEnd {
				maxEnd = ends[i][k]
			}
		}
		out.Times[i] = maxEnd - minStart
	}
	return out
}
