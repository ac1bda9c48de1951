package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/stats"
)

// serviceWorkload is the warm planner service: every fit already in the
// store, so model + grid + store do all the work and the simulator none.
type serviceWorkload struct{ name, why string }

func (s *serviceWorkload) Name() string { return s.name }
func (s *serviceWorkload) Why() string  { return s.why }

// Request classes of the service mix, with their share of requests.
const (
	clsPredict = iota
	clsPredictV
	clsPredictKind
	clsBest
	clsSelect
	clsSave
	numClasses
)

var classShare = [numClasses]float64{0.40, 0.25, 0.20, 0.12, 0.02, 0.01}

var classMetric = [numClasses]string{
	"grid.service_predict_us", "grid.service_predictv_us", "grid.service_predictkind_us",
	"grid.service_best_us", "grid.service_select_us", "grid.service_save_us",
}

// serviceKinds are the collectives the service answers PredictKind for.
var serviceKinds = []coll.Kind{coll.KindAlltoall, coll.KindAllgather, coll.KindBroadcast, coll.KindAllreduce}

// serviceState is a filled service and what its requests draw from.
type serviceState struct {
	opt   grid.Options
	svc   *grid.Service
	topos []cluster.TopoNode
	// sizes[t] are topology t's fixed pair of size matrices: one
	// block-diagonal, one hotspot-row. They are exercised in set-up so
	// that no timed request can trigger a new fit.
	sizes [][2]coll.SizeMatrix
	store []byte // the serialized store after the fill
}

func serviceTopos() ([]cluster.TopoNode, error) {
	topos := []cluster.TopoNode{benchTopo()}
	for _, name := range []string{"fe2-wan20", "mixed-wan30"} {
		gp, err := cluster.GridByName(name)
		if err != nil {
			return nil, err
		}
		topos = append(topos, gp.Tree())
	}
	return topos, nil
}

// fillService plans every topology on a fresh service, runs every
// request class once per topology so all lazy fits exist, and serializes
// the store.
func fillService(cfg runConfig, tr *tracer) (*serviceState, error) {
	topos, err := serviceTopos()
	if err != nil {
		return nil, err
	}
	st := &serviceState{opt: gridOptions(cfg, sim.ModeFluid, runtime.NumCPU()), topos: topos}
	st.opt.Trace = tr.collector()
	sp := tr.start("grid.service_fill")
	defer sp.end()
	if st.svc, err = grid.NewService(st.opt); err != nil {
		return nil, err
	}
	m := st.opt.ProbeSizes[0]
	for _, tp := range topos {
		if _, err := st.svc.PlannerFor(tp); err != nil {
			return nil, fmt.Errorf("plan %s: %w", tp.Name, err)
		}
		pair := [2]coll.SizeMatrix{
			coll.SizeMatrixFromRows(cluster.BlockDiagonalBytes(tp, 2*m, m/4)),
			coll.SizeMatrixFromRows(cluster.HotspotRowBytes(tp, m/2, 0, 4)),
		}
		st.sizes = append(st.sizes, pair)
		for _, k := range serviceKinds {
			if _, err := st.svc.PredictKind(tp, k, m); err != nil {
				return nil, fmt.Errorf("fit %v on %s: %w", k, tp.Name, err)
			}
		}
		for _, sz := range pair {
			if _, err := st.svc.PredictV(tp, sz); err != nil {
				return nil, err
			}
			if _, err := st.svc.SelectCoordinatorsV(tp, sz); err != nil {
				return nil, err
			}
		}
	}
	var buf bytes.Buffer
	if err := st.svc.SaveStore(&buf); err != nil {
		return nil, err
	}
	st.store = buf.Bytes()
	return st, nil
}

// warmStart is the new-process path: parse the serialized store, bind a
// service to it and build every topology's planner from stored fits.
func (st *serviceState) warmStart(tr *tracer) (*grid.Service, error) {
	sp := tr.startLight("grid.store_read")
	store, err := grid.ReadCurveStore(bytes.NewReader(st.store))
	sp.end()
	if err != nil {
		return nil, err
	}
	opt := st.opt
	opt.Trace = tr.collector()
	svc, err := grid.NewServiceWithStore(opt, store)
	if err != nil {
		return nil, err
	}
	for _, tp := range st.topos {
		sp := tr.startLight("grid.plannerfor_warm")
		_, err := svc.PlannerFor(tp)
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// client is one closed-loop caller: it draws its request sequence from
// its own seeded stream, so what it asks — and therefore what it is
// answered — is fixed whatever the interleaving with other clients.
type client struct {
	st   *serviceState
	svc  *grid.Service
	rng  *rand.Rand
	save bytes.Buffer
	hash hash.Hash // running digest over the first digestOps answers
	ops  int
}

func newClient(st *serviceState, svc *grid.Service, seed int64) *client {
	return &client{st: st, svc: svc, rng: rand.New(rand.NewSource(seed)), hash: sha256.New()}
}

// request issues one request of the seeded mix, checks the answer and
// returns its class.
func (c *client) request(digestOps int) (int, error) {
	r := c.rng
	t := r.Intn(len(c.st.topos))
	topo := c.st.topos[t]
	// Log-uniform 1 KiB – 1 MiB, scaled with the fits it is looked up in.
	size := int(math.Exp2(10+10*r.Float64()) * float64(c.st.opt.ProbeSizes[0]) / (48 << 10))
	if size < 1 {
		size = 1
	}
	u := r.Float64()
	cls := 0
	for acc := classShare[0]; u >= acc && cls < numClasses-1; acc += classShare[cls] {
		cls++
	}
	kind := serviceKinds[r.Intn(len(serviceKinds))]
	sz := c.st.sizes[t][r.Intn(2)]
	variant := r.Intn(3)

	// fold adds part of the answer to the client's digest while it is
	// within its first digestOps requests.
	record := c.ops < digestOps
	fold := func(id int, t float64) {
		if record {
			var b [16]byte
			binary.LittleEndian.PutUint64(b[:8], uint64(id))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(t))
			c.hash.Write(b[:])
		}
	}
	foldAll := func(preds []grid.Prediction) {
		for _, p := range preds {
			fold(int(p.Strategy), p.T)
		}
	}
	fold(cls, float64(t))
	var err error
	switch cls {
	case clsPredict:
		var preds []grid.Prediction
		if preds, err = c.svc.Predict(topo, size); err == nil {
			err = checkPredictions(coll.KindAlltoall, preds)
		}
		foldAll(preds)
	case clsPredictV:
		var preds []grid.Prediction
		if preds, err = c.svc.PredictV(topo, sz); err == nil {
			err = checkPredictions(coll.KindAlltoallv, preds)
		}
		foldAll(preds)
	case clsPredictKind:
		var preds []grid.Prediction
		if preds, err = c.svc.PredictKind(topo, kind, size); err == nil {
			err = checkPredictions(kind, preds)
		}
		foldAll(preds)
	case clsBest:
		var p grid.Prediction
		switch variant {
		case 0:
			p, err = c.svc.Best(topo, size)
		case 1:
			p, err = c.svc.BestV(topo, sz)
		default:
			p, err = c.svc.BestKind(topo, kind, size)
		}
		if err == nil && (!(p.T > 0) || math.IsInf(p.T, 0)) {
			err = fmt.Errorf("best prediction is %v, want finite > 0", p.T)
		}
		fold(int(p.Strategy), p.T)
	case clsSelect:
		var choices []grid.CoordChoice
		choices, err = c.svc.SelectCoordinatorsV(topo, sz)
		if err == nil && len(choices) == 0 {
			err = fmt.Errorf("no coordinator choices")
		}
		for _, ch := range choices {
			fold(ch.Leaf, ch.PredT)
		}
	case clsSave:
		c.save.Reset()
		err = c.svc.SaveStore(&c.save)
		if err == nil && !bytes.Equal(c.save.Bytes(), c.st.store) {
			err = fmt.Errorf("store re-serialized to %d bytes that differ from the %d written after the fill: a timed request changed a fit",
				c.save.Len(), len(c.st.store))
		}
	}
	if err != nil {
		return cls, fmt.Errorf("%s on %s: %w", classMetric[cls], topo.Name, err)
	}
	c.ops++
	return cls, nil
}

// serviceDigestOps is how many of each client's first answers go into
// sim_digest; every client issues at least that many requests, so the
// digest covers the same requests however fast the host is.
func serviceDigestOps(cfg runConfig) int { return int(math.Max(500, 20000*cfg.Scale)) }

// Run fills the service SetupReps times (setup_s), times warm starts
// from the serialized store, then runs min(nproc, 4) closed-loop clients
// against the last filled service until the time budget is spent.
func (s *serviceWorkload) Run(cfg runConfig) *result {
	res := &result{Workload: s.name, Correct: true}
	e2e, e2eN := map[string]float64{}, map[string]int{}
	layer, layerN := map[string]float64{}, map[string]int{}

	var st *serviceState
	var setupS []float64
	for i := 0; i < cfg.SetupReps; i++ {
		t0 := time.Now()
		next, err := fillService(cfg, nil)
		if err != nil {
			res.fail("setup: %v", err)
			return res
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if st != nil && !bytes.Equal(st.store, next.store) {
			res.fail("set-up %d serialized a different store than set-up 0", i)
		}
		st = next
	}
	e2e["setup_s"], e2eN["setup_s"] = median(setupS), len(setupS)

	// Warm starts: the new-process path, from the serialized bytes.
	starts := int(math.Max(10, 200*cfg.Scale))
	startMS := make([]float64, starts)
	for i := range startMS {
		t0 := time.Now()
		if _, err := st.warmStart(nil); err != nil {
			res.fail("warm start: %v", err)
			return res
		}
		startMS[i] = time.Since(t0).Seconds() * 1e3
	}
	layer["grid.warm_start_ms_p50"], layerN["grid.warm_start_ms_p50"] = median(startMS), starts

	// The timed closed loop.
	nClients := min(runtime.NumCPU(), 4)
	digestOps := serviceDigestOps(cfg)
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	// Latencies go into slices sized before the clock starts, so that
	// recording them is not in alloc_bytes_per_op; a client that fills
	// its slice stops early.
	capacity := int(cfg.Seconds*400_000) + digestOps
	type lane struct {
		ns     []int32
		cls    []uint8
		failed int
		first  error
		c      *client
	}
	lanes := make([]*lane, nClients)
	for i := range lanes {
		lanes[i] = &lane{
			ns: make([]int32, 0, capacity), cls: make([]uint8, 0, capacity),
			c: newClient(st, st.svc, cfg.Seed+int64(i)),
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var wg sync.WaitGroup
	loop0 := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for len(l.ns) < capacity {
				t0 := time.Now()
				if cfg.Reps > 0 {
					if len(l.ns) >= digestOps {
						return
					}
				} else if len(l.ns) >= digestOps && t0.Sub(loop0) >= budget {
					return
				}
				cls, err := l.c.request(digestOps)
				l.ns = append(l.ns, int32(time.Since(t0)))
				l.cls = append(l.cls, uint8(cls))
				if err != nil {
					l.failed++
					if l.first == nil {
						l.first = err
					}
				}
			}
		}(l)
	}
	wg.Wait()
	loopS := time.Since(loop0).Seconds()
	runtime.ReadMemStats(&ms1)

	var all []float64
	perClass := make([][]float64, numClasses)
	digest := sha256.New()
	for i, l := range lanes {
		res.Attempted += len(l.ns)
		res.Failed += l.failed
		if l.first != nil {
			res.fail("client %d: %d failed requests, first: %v", i, l.failed, l.first)
		}
		for j, ns := range l.ns {
			us := float64(ns) / 1e3
			all = append(all, us)
			perClass[l.cls[j]] = append(perClass[l.cls[j]], us)
		}
		digest.Write(l.c.hash.Sum(nil))
	}
	digest.Write(st.store)
	res.SimDigest = hex.EncodeToString(digest.Sum(nil))
	n := float64(len(all))
	e2e["op_s_p50"], e2eN["op_s_p50"] = median(all)/1e6, len(all)
	e2e["ops_per_s"], e2eN["ops_per_s"] = n/loopS, len(all)
	e2e["alloc_bytes_per_op"], e2eN["alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, len(all)
	res.EndToEnd = fill(endToEnd, e2e, e2eN)

	// A serialized store that changed means a timed request fitted
	// something: the service was not warm.
	var after bytes.Buffer
	if err := st.svc.SaveStore(&after); err != nil {
		res.fail("final SaveStore: %v", err)
	} else if !bytes.Equal(after.Bytes(), st.store) {
		res.fail("store changed during the timed phase: the service was not warm")
	}
	if !cfg.traced() {
		return res
	}

	layer["grid.service_op_us_p99"], layerN["grid.service_op_us_p99"] = stats.Quantile(all, 0.99), len(all)
	for c, us := range perClass {
		layer[classMetric[c]], layerN[classMetric[c]] = median(us), len(us)
	}
	layer["grid.store_bytes"] = float64(len(st.store))
	layer["host.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / n
	layer["host.gc_pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	layer["host.peak_heap_mb"] = float64(ms1.HeapInuse) / (1 << 20)
	s.tracedPass(cfg, st, res, layer, layerN, e2e["op_s_p50"]*1e6)
	res.PerLayer = fill(perLayer, layer, layerN)
	return res
}

// tracedPass repeats the journey under the tracer with one client: a
// traced fill, a traced warm start (store hits and misses per start),
// and a fixed number of requests against the traced warm service, over
// which no probe may run and no store lookup may miss.
func (s *serviceWorkload) tracedPass(cfg runConfig, st *serviceState, res *result, layer map[string]float64, layerN map[string]int, untracedP50us float64) {
	digestOps := serviceDigestOps(cfg)
	tr := newTracer(s.name, time.Now())
	tr.op = -1
	filled, err := fillService(cfg, tr)
	if err != nil {
		res.fail("traced setup: %v", err)
		return
	}
	if !bytes.Equal(filled.store, st.store) {
		res.fail("traced fill serialized a different store: tracing moved a fit")
	}
	layer["grid.characterize_s"] = tr.total(-1, "grid.service_fill")
	fillProbes := counter(tr.c, grid.CtrProbes)
	layer["grid.probe_ms_mean"] = ratio(layer["grid.characterize_s"]*1e3, float64(fillProbes))

	tr.op = 0
	tr.c.Reset()
	svc, err := filled.warmStart(tr)
	if err != nil {
		res.fail("traced warm start: %v", err)
		return
	}
	layer["grid.store_read_ms"] = tr.total(0, "grid.store_read") * 1e3
	layer["grid.plannerfor_warm_us"] = tr.total(0, "grid.plannerfor_warm") * 1e6 / float64(len(filled.topos))
	layer["grid.store_hits_per_start"] = float64(counter(tr.c, grid.CtrStoreHit))
	layer["grid.store_misses_per_start"] = float64(counter(tr.c, grid.CtrStoreMiss))

	sp := tr.startLight("grid.store_write")
	var buf bytes.Buffer
	err = svc.SaveStore(&buf)
	layer["grid.store_write_ms"] = sp.end() * 1e3
	if err != nil {
		res.fail("traced SaveStore: %v", err)
		return
	}

	c := newClient(filled, svc, cfg.Seed)
	probes0, miss0, events0 := counter(tr.c, grid.CtrProbes), counter(tr.c, grid.CtrStoreMiss), counter(tr.c, grid.CtrSimEvents)
	obs0 := len(tr.c.Events())
	us := make([]float64, 0, digestOps)
	for i := 0; i < digestOps; i++ {
		tr.op = i + 1
		sp := tr.startLight("grid.service_request")
		_, err := c.request(0)
		us = append(us, sp.end()*1e6)
		if err != nil {
			res.fail("traced request %d: %v", i, err)
			return
		}
	}
	probes := counter(tr.c, grid.CtrProbes) - probes0
	layer["grid.probes_per_op"] = float64(probes) / float64(digestOps)
	if probes != 0 {
		res.fail("%d probes ran during warm requests, want 0", probes)
	}
	if d := counter(tr.c, grid.CtrStoreMiss) - miss0; d != 0 {
		res.fail("%d store misses during warm requests, want 0", d)
	}
	layer["sim.events_per_op"] = float64(counter(tr.c, grid.CtrSimEvents)-events0) / float64(digestOps)
	layer["obs.events_per_op"] = float64(len(tr.c.Events())-obs0) / float64(digestOps)
	layer["obs.trace_overhead_pct"], layerN["obs.trace_overhead_pct"] = (median(us)/untracedP50us-1)*100, len(us)
	res.spans = tr.spans
}
