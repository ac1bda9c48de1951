// Package calib acquires model parameters from the simulated clusters
// the same way the paper acquires them from real ones:
//
//   - PingPong measures the contention-free Hockney parameters (α, β)
//     with a two-node ping-pong, "a simple point-to-point measure".
//   - SaturationProbe reproduces the Fig. 1 methodology: many
//     simultaneous point-to-point connections flood the network; the
//     per-connection completion times yield the average bandwidth curve
//     (Fig. 2), the straggler scatter (Fig. 3), and the βF/βC pair used
//     by the Section 6 two-beta model.
package calib

import (
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/stats"
)

const probeTag int32 = 7000

// smallSizes are the ping-pong sizes α is read from; never modified.
var smallSizes = []int{1, 64, 256, 1024}

// PingPongConfig tunes the Hockney calibration.
type PingPongConfig struct {
	Reps       int   // ping-pongs per size (default 10)
	LargeSizes []int // sizes used for β (default 128k..1M)
}

func (c PingPongConfig) withDefaults() PingPongConfig {
	if c.Reps == 0 {
		c.Reps = 10
	}
	if len(c.LargeSizes) == 0 {
		c.LargeSizes = []int{128 << 10, 256 << 10, 512 << 10, 1 << 20}
	}
	return c
}

// PingPong measures Hockney α and β on a two-node instance of the
// profile: β is the OLS slope over the large-message one-way times, α
// the mean small-message residual after removing the β·m term. The
// mpi.Config argument is ignored (see mpi.Config).
func PingPong(p cluster.Profile, _ mpi.Config, seed int64, cfg PingPongConfig) model.Hockney {
	cfg = cfg.withDefaults()
	w := mpi.NewWorld(cluster.Build(p, 2, seed))

	allSizes := append(append([]int{}, smallSizes...), cfg.LargeSizes...)
	oneWay := make(map[int][]float64, len(allSizes))

	w.Run(func(r *mpi.Rank) {
		for _, m := range allSizes {
			for rep := 0; rep < cfg.Reps; rep++ {
				r.Barrier()
				if r.ID() == 0 {
					t0 := r.Now()
					r.Send(1, probeTag, m)
					r.Recv(1, probeTag)
					rtt := r.Now() - t0
					oneWay[m] = append(oneWay[m], rtt.Seconds()/2)
				} else {
					r.Recv(0, probeTag)
					r.Send(0, probeTag, m)
				}
			}
		}
	})

	// β from the large-message slope.
	var xs, ys []float64
	for _, m := range cfg.LargeSizes {
		xs = append(xs, float64(m))
		ys = append(ys, stats.Mean(oneWay[m]))
	}
	_, beta, err := stats.LinFit(xs, ys)
	if err != nil || beta <= 0 {
		// Degenerate sweep: fall back to a single-point bandwidth read.
		m := cfg.LargeSizes[len(cfg.LargeSizes)-1]
		beta = stats.Mean(oneWay[m]) / float64(m)
	}
	// α from small-message residuals.
	var alphas []float64
	for _, m := range smallSizes {
		a := stats.Mean(oneWay[m]) - beta*float64(m)
		if a > 0 {
			alphas = append(alphas, a)
		}
	}
	alpha := stats.Mean(alphas)
	if alpha <= 0 {
		alpha = stats.Mean(oneWay[smallSizes[0]])
	}
	return model.Hockney{Alpha: alpha, Beta: beta}
}

// ProbeResult holds one saturation-probe run: Conns simultaneous
// transfers of Size bytes, with the per-connection completion times.
type ProbeResult struct {
	Conns int
	Size  int
	Times []float64 // seconds, one per connection
}

// MeanTime returns the average per-connection completion time (s).
func (r ProbeResult) MeanTime() float64 { return stats.Mean(r.Times) }

// MaxTime returns the straggler (slowest connection) time (s).
func (r ProbeResult) MaxTime() float64 { return stats.Max(r.Times) }

// AvgBandwidth returns the mean of per-connection bandwidths (bytes/s),
// the quantity plotted in Fig. 2.
func (r ProbeResult) AvgBandwidth() float64 {
	if len(r.Times) == 0 {
		return 0
	}
	var s float64
	for _, t := range r.Times {
		if t > 0 {
			s += float64(r.Size) / t
		}
	}
	return s / float64(len(r.Times))
}

// SaturationProbe opens conns point-to-point connections between random
// host pairs (reusing hosts, as happens when flooding a cluster) and
// transfers size bytes on each, all starting together. The per-
// connection times are measured at the receivers.
func SaturationProbe(p cluster.Profile, nodes, conns, size int, seed int64) ProbeResult {
	w := mpi.NewWorld(cluster.Build(p, nodes, seed))

	rng := rand.New(rand.NewSource(seed ^ 0x5eedca11))
	type pair struct{ src, dst int }
	pairs := make([]pair, conns)
	for k := range pairs {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		pairs[k] = pair{src, dst}
	}

	times := make([]float64, conns)
	w.Run(func(r *mpi.Rank) {
		// Post receives for the pairs targeting this rank.
		var recvQs []*mpi.Request
		var recvIdx []int
		for k, pr := range pairs {
			if pr.dst == r.ID() {
				recvQs = append(recvQs, r.Irecv(pr.src, probeTag+int32(k)))
				recvIdx = append(recvIdx, k)
			}
		}
		r.Barrier()
		start := r.Now()
		var sendQs []*mpi.Request
		for k, pr := range pairs {
			if pr.src == r.ID() {
				sendQs = append(sendQs, r.Isend(pr.dst, probeTag+int32(k), size))
			}
		}
		r.WaitAll(recvQs...)
		r.WaitAll(sendQs...)
		for i, q := range recvQs {
			times[recvIdx[i]] = (q.CompletedAt() - start).Seconds()
		}
	})
	return ProbeResult{Conns: conns, Size: size, Times: times}
}

// ExtractBetas derives the Section 6 parameters from a lightly loaded
// probe (βF, the contention-free gap) and a saturated probe (βC, read
// from the straggler tail — the p95 connection — because the contended
// gap the paper measures is the cost of the delayed connections).
func ExtractBetas(single, saturated ProbeResult) (betaF, betaC float64) {
	betaF = stats.Min(single.Times) / float64(single.Size)
	betaC = stats.Quantile(saturated.Times, 0.95) / float64(saturated.Size)
	return betaF, betaC
}

// TwoBetaModel assembles the Section 6 model from probe results with the
// paper's ρ = 0.5.
func TwoBetaModel(h model.Hockney, single, saturated ProbeResult) model.TwoBeta {
	bf, bc := ExtractBetas(single, saturated)
	return model.TwoBeta{Alpha: h.Alpha, BetaF: bf, BetaC: bc, Rho: 0.5}
}
