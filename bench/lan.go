package main

import (
	"fmt"
	"math"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/signature"
)

// lanCell is one All-to-All measurement on a fresh single-cluster
// environment: cluster.Build → mpi.NewWorld → coll.Measure(w, 1, reps).
type lanCell struct {
	profile cluster.Profile
	n, m    int
	alg     coll.Algorithm
	reps    int
}

// fitN is the process count n′ the §7 procedure fits each signature at;
// the cells then ask the model about other n.
const fitN = 8

// scaled shrinks a cell for the self-test: events grow as n²·m, so both
// shrink.
func (c lanCell) scaled(scale float64) lanCell {
	if scale == 1 {
		return c
	}
	c.n = int(math.Max(4, math.Round(float64(c.n)*math.Cbrt(scale))))
	c.m = int(math.Max(16, math.Round(float64(c.m)*scale)))
	if c.reps > 2 {
		c.reps = 2
	}
	return c
}

// fitKey names one fitted signature: a network under one algorithm.
type fitKey struct {
	profile string
	alg     coll.Algorithm
}

// lanWorkload builds the simSpec of a workload made of LAN cells.
func lanWorkload(name, why string, cells []lanCell, defining func(map[string]float64) (string, bool)) *simSpec {
	scaled := func(scale float64) []lanCell {
		sc := make([]lanCell, len(cells))
		for i, c := range cells {
			sc[i] = c.scaled(scale)
		}
		return sc
	}
	return &simSpec{
		name: name, why: why, defining: defining,
		setup: func(cfg runConfig, tr *tracer) (func(*tracer) (opOut, error), map[string]float64, error) {
			sc := scaled(cfg.Scale)
			sigs, layer, err := fitSignatures(sc, cfg, tr)
			if err != nil {
				return nil, nil, err
			}
			op := func(tr *tracer) (opOut, error) { return lanOp(sc, sigs, cfg.Seed, tr) }
			return op, layer, nil
		},
		rungs: func(cfg runConfig, last *opOut) (map[string]float64, error) {
			return lanRungs(scaled(cfg.Scale), cfg.Seed, last)
		},
	}
}

// fitSignatures is the paper's §7 procedure, once per (network,
// algorithm) the cells use: a two-node ping-pong for Hockney's α and β,
// a four-size All-to-All sweep at n′ spanning the cells' message sizes,
// and the least-squares signature fit.
func fitSignatures(cells []lanCell, cfg runConfig, tr *tracer) (map[fitKey]model.Signature, map[string]float64, error) {
	seed := cfg.Seed
	var pp calib.PingPongConfig // the zero value is the paper-scale sweep
	if cfg.Scale < 1 {
		pp.Reps = 2
		for _, m := range []int{128 << 10, 256 << 10, 512 << 10, 1 << 20} {
			pp.LargeSizes = append(pp.LargeSizes, int(float64(m)*cfg.Scale))
		}
	}
	hockney := map[string]model.Hockney{}
	sigs := map[fitKey]model.Signature{}
	var mape float64
	for _, c := range cells {
		k := fitKey{c.profile.Name, c.alg}
		if _, done := sigs[k]; done {
			continue
		}
		h, ok := hockney[c.profile.Name]
		if !ok {
			sp := tr.start("calib.pingpong")
			h = calib.PingPong(c.profile, mpi.DefaultConfig(), seed, pp)
			sp.end()
			hockney[c.profile.Name] = h
		}
		lo, hi := c.m, c.m
		for _, o := range cells {
			if (fitKey{o.profile.Name, o.alg}) == k {
				lo, hi = min(lo, o.m), max(hi, o.m)
			}
		}
		sp := tr.start("coll.sweep")
		var samples []signature.Sample
		for _, m := range sweepSizes(lo, hi) {
			cl := cluster.Build(c.profile, fitN, seed+7)
			w := mpi.NewWorld(cl, mpi.DefaultConfig())
			alg, m := c.alg, m
			meas := coll.Measure(w, 1, 1, func(r *mpi.Rank) { coll.Alltoall(r, m, alg) })
			samples = append(samples, signature.Sample{M: m, T: meas.Mean()})
		}
		sp.end()
		sp = tr.start("signature.fit")
		sig, rep, err := signature.Fit(h, fitN, samples, signature.Options{})
		sp.end()
		if err != nil {
			return nil, nil, fmt.Errorf("signature fit %s/%v: %w", c.profile.Name, c.alg, err)
		}
		sigs[k] = sig
		mape += rep.MAPE
	}
	var layer map[string]float64
	if tr != nil {
		layer = map[string]float64{
			"calib.pingpong_s":       tr.total(tr.op, "calib.pingpong"),
			"signature.fit_ms":       tr.total(tr.op, "signature.fit") * 1e3,
			"signature.fit_mape_pct": mape / float64(len(sigs)) * 100,
		}
	}
	return sigs, layer, nil
}

// sweepSizes returns four distinct log-spaced message sizes from a
// quarter of lo up to hi, the sweep of one signature fit.
func sweepSizes(lo, hi int) []int {
	from := math.Max(8, float64(lo)/4)
	ratio := math.Pow(float64(hi)/from, 1.0/3)
	sizes := make([]int, 4)
	for i := range sizes {
		sizes[i] = int(math.Round(from * math.Pow(ratio, float64(i))))
		if i > 0 && sizes[i] <= sizes[i-1] {
			sizes[i] = sizes[i-1] + 1
		}
	}
	return sizes
}

// lanOp runs every cell once on a fresh cluster and checks that the
// fabric moved at least the payload the algorithm must move.
func lanOp(cells []lanCell, sigs map[fitKey]model.Signature, seed int64, tr *tracer) (opOut, error) {
	var out opOut
	var tot struct {
		events, delivered, drops              uint64
		msgs, bytes, retx, fastRetx, timeouts int64
		simS, absErr                          float64
	}
	for i, c := range cells {
		sp := tr.start("cluster.build")
		cl := cluster.Build(c.profile, c.n, seed+101*int64(i))
		cl.Net.AttachCollector(tr.collector())
		w := mpi.NewWorld(cl, mpi.DefaultConfig())
		sp.end()

		sp = tr.start("coll.measure")
		alg, m := c.alg, c.m
		meas := coll.Measure(w, 1, c.reps, func(r *mpi.Rank) { coll.Alltoall(r, m, alg) })
		sp.end()

		pred := sigs[fitKey{c.profile.Name, c.alg}].Predict(c.n, c.m)

		st := cl.Fabric.TotalStats()
		floor := int64(c.n) * int64(c.n-1) * int64(c.m) * int64(1+c.reps)
		if st.BytesSent < floor {
			return out, fmt.Errorf("cell %d (%s n=%d m=%d %v): fabric sent %d payload bytes, the exchange needs at least %d",
				i, c.profile.Name, c.n, c.m, c.alg, st.BytesSent, floor)
		}
		simS := meas.Mean()
		out.simS = append(out.simS, simS)
		out.preds = append(out.preds, pred)
		out.counts = append(out.counts, cl.Sim.Events(), cl.Net.DeliveredPackets(), cl.Net.Drops(),
			uint64(st.MsgsSent), uint64(st.BytesSent), uint64(st.Retransmits), uint64(st.FastRetransmits), uint64(st.Timeouts))

		tot.events += cl.Sim.Events()
		tot.delivered += cl.Net.DeliveredPackets()
		tot.drops += cl.Net.Drops()
		tot.msgs += st.MsgsSent
		tot.bytes += st.BytesSent
		tot.retx += st.Retransmits
		tot.fastRetx += st.FastRetransmits
		tot.timeouts += st.Timeouts
		tot.simS += simS
		tot.absErr += math.Abs(pred-simS) / simS * 100
	}
	out.layer = map[string]float64{
		"sim.events_per_op":                 float64(tot.events),
		"sim.simulated_s_per_op":            tot.simS,
		"netsim.pkts_delivered_per_op":      float64(tot.delivered),
		"netsim.drops_per_op":               float64(tot.drops),
		"netsim.drop_ratio":                 ratio(float64(tot.drops), float64(tot.delivered+tot.drops)),
		"transport.msgs_per_op":             float64(tot.msgs),
		"transport.payload_mb_per_op":       float64(tot.bytes) / 1e6,
		"transport.retransmits_per_op":      float64(tot.retx),
		"transport.fast_retransmits_per_op": float64(tot.fastRetx),
		"transport.timeouts_per_op":         float64(tot.timeouts),
		"transport.retransmit_ratio":        ratio(float64(tot.retx), float64(tot.delivered)),
		"model.abs_err_pct":                 tot.absErr / float64(len(cells)),
	}
	if tr != nil {
		c := tr.collector()
		out.layer["netsim.pkts_forwarded_per_op"] = float64(counter(c, netsim.CtrForwarded))
		out.layer["netsim.wan_mb_per_op"] = float64(counter(c, netsim.CtrWANBytes)) / 1e6
		out.layer["coll.measure_s"] = tr.total(tr.op, "coll.measure")
		out.layer["cluster.build_ms"] = tr.total(tr.op, "cluster.build") * 1e3
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
