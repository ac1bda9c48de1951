package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/stats"
)

// runConfig is one run's settings. Only Seed feeds the input generator.
type runConfig struct {
	Seed  int64
	Scale float64 // 1 = the benchmark; < 1 shrinks inputs for the self-test
	// Seconds is how long the untraced closed loop measures; TraceSeconds
	// is the budget of the traced pass (0 = no traced pass).
	Seconds      float64
	TraceSeconds float64
	// Reps, when positive, replaces both time budgets with fixed counts:
	// Reps measured ops and one traced op.
	Reps int
	// SetupReps is how many times set-up runs; setup_s is their median.
	SetupReps int
	// corrupt, when set, may damage op i's output before it is checked.
	// Only the self-test sets it, to prove a bad op is counted as failed.
	corrupt func(i int, out *opOut)
}

func (c runConfig) traced() bool { return c.TraceSeconds > 0 }

// result is everything one run of one workload reports.
type result struct {
	Workload  string    `json:"workload"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Correct   bool      `json:"correct"`
	SimDigest string    `json:"sim_digest"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
	Warnings  []string  `json:"warnings,omitempty"`
	Failures  []string  `json:"failures,omitempty"`

	spans []span
}

// fail records a failed check; only the first few reasons are kept.
func (r *result) fail(format string, args ...interface{}) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) warn(format string, args ...interface{}) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	Name() string
	Why() string
	Run(cfg runConfig) *result
}

// opOut is what one op of a simulation workload produced.
type opOut struct {
	// simS are the simulated seconds of the op's cells, in cell order;
	// preds the model's predictions for the same cells.
	simS  []float64
	preds []float64
	// counts are the exact counters readable in both passes, cell order.
	counts []uint64
	// layer holds the per-layer values the workload derived for this op.
	layer map[string]float64
}

// digest hashes everything a host-side optimisation must leave alone:
// simulated times, predictions and exact counters, in cell order.
func (o *opOut) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range o.simS {
		put(math.Float64bits(v))
	}
	put(uint64(len(o.simS)))
	for _, v := range o.preds {
		put(math.Float64bits(v))
	}
	put(uint64(len(o.preds)))
	for _, v := range o.counts {
		put(v)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check applies the per-op output checks that every simulation workload
// shares; workload-specific ones (payload floor, prediction order) run
// inside the op and surface as its error.
func (o *opOut) check() error {
	if len(o.simS) == 0 {
		return fmt.Errorf("op produced no simulated time")
	}
	for i, v := range o.simS {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("simulated time %d = %v, want finite > 0", i, v)
		}
	}
	for i, v := range o.preds {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("prediction %d = %v, want finite > 0", i, v)
		}
	}
	return nil
}

// simSpec is a single-client simulation workload.
type simSpec struct {
	name, why string
	// setup builds the workload's inputs from the seed — everything that
	// happens before the first op — and returns the op. It is called
	// SetupReps times untraced and once more with the tracer.
	setup func(cfg runConfig, tr *tracer) (op func(tr *tracer) (opOut, error), layer map[string]float64, err error)
	// rungs drives the layers below the workload in isolation and
	// returns their per-layer values; last is the final traced op.
	rungs func(cfg runConfig, last *opOut) (map[string]float64, error)
	// defining names the property that makes the workload what it is and
	// reports whether op still has it.
	defining func(layer map[string]float64) (property string, ok bool)
}

func (s *simSpec) Name() string { return s.name }
func (s *simSpec) Why() string  { return s.why }

// Run measures the workload: SetupReps set-ups (each ending in one
// unmeasured warm-up op), then a closed loop of one client running the
// same op until the time budget is spent, then — if asked — the traced
// pass: set-up and ops once more under the tracer, and the rungs.
func (s *simSpec) Run(cfg runConfig) *result {
	res := &result{Workload: s.name, Correct: true}
	e2e := map[string]float64{}
	e2eN := map[string]int{}

	var op func(tr *tracer) (opOut, error)
	var setupS []float64
	var want string // the digest every op must reproduce
	var last opOut
	for i := 0; i < cfg.SetupReps; i++ {
		t0 := time.Now()
		var err error
		op, _, err = s.setup(cfg, nil)
		if err != nil {
			res.fail("setup: %v", err)
			return res
		}
		out, err := op(nil)
		if err == nil {
			err = out.check()
		}
		if err != nil {
			res.fail("warm-up op: %v", err)
			return res
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if d := out.digest(); want == "" {
			want = d
		} else if d != want {
			res.fail("set-up %d: warm-up digest %s differs from %s", i, d[:12], want[:12])
		}
		last = out
	}
	e2e["setup_s"], e2eN["setup_s"] = median(setupS), len(setupS)
	res.SimDigest = want

	// Untraced closed loop.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var opS []float64
	var peakHeap uint64
	loop0 := time.Now()
	for i := 0; ; i++ {
		if cfg.Reps > 0 {
			if i >= cfg.Reps {
				break
			}
		} else if i >= 3 && time.Since(loop0).Seconds() >= cfg.Seconds {
			break
		}
		t0 := time.Now()
		out, err := op(nil)
		opS = append(opS, time.Since(t0).Seconds())
		res.Attempted++
		if err == nil && cfg.corrupt != nil {
			cfg.corrupt(i, &out)
		}
		if err == nil {
			err = out.check()
		}
		if err == nil && out.digest() != want {
			err = fmt.Errorf("digest %s differs from the warm-up's %s: reps of one seed must be bit-identical", out.digest()[:12], want[:12])
		}
		if err != nil {
			res.Failed++
			res.fail("op %d: %v", i, err)
			continue
		}
		last = out
		if i%4 == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peakHeap {
				peakHeap = ms.HeapInuse
			}
		}
	}
	loopS := time.Since(loop0).Seconds()
	runtime.ReadMemStats(&ms1)
	n := float64(len(opS))
	e2e["op_s_p50"], e2eN["op_s_p50"] = median(opS), len(opS)
	e2e["ops_per_s"], e2eN["ops_per_s"] = n/loopS, len(opS)
	e2e["alloc_bytes_per_op"], e2eN["alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc)/n, len(opS)
	res.EndToEnd = fill(endToEnd, e2e, e2eN)

	if cfg.Scale == 1 && s.defining != nil {
		if prop, ok := s.defining(last.layer); !ok {
			res.warn("seed %d lost the workload's defining property: %s", cfg.Seed, prop)
		}
	}
	if !cfg.traced() {
		return res
	}

	// Traced pass: everything per-layer comes from here.
	layer := map[string]float64{}
	layerN := map[string]int{}
	layer["host.gc_cycles_per_op"] = float64(ms1.NumGC-ms0.NumGC) / n
	layer["host.gc_pause_ms_per_op"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	layer["host.peak_heap_mb"] = float64(peakHeap) / (1 << 20)

	tr := newTracer(s.name, time.Now())
	tr.op = -1 // set-up spans
	top, setupLayer, err := s.setup(cfg, tr)
	if err != nil {
		res.fail("traced setup: %v", err)
		return res
	}
	for k, v := range setupLayer {
		layer[k] = v
	}
	var tracedS []float64
	var tout opOut
	t0 := time.Now()
	for i := 0; i == 0 || (cfg.Reps == 0 && time.Since(t0).Seconds() < cfg.TraceSeconds/2); i++ {
		tr.op = i
		tr.c.Reset()
		sp := tr.start("bench.op")
		tout, err = top(tr)
		tracedS = append(tracedS, sp.end())
		if err == nil {
			err = tout.check()
		}
		if err == nil && tout.digest() != want {
			err = fmt.Errorf("traced digest %s differs from the untraced %s: tracing moved a simulated result", tout.digest()[:12], want[:12])
		}
		if err != nil {
			res.fail("traced op %d: %v", i, err)
			return res
		}
	}
	for k, v := range tout.layer {
		layer[k] = v
	}
	layer["obs.trace_overhead_pct"] = (median(tracedS)/e2e["op_s_p50"] - 1) * 100
	layerN["obs.trace_overhead_pct"] = len(tracedS)
	layer["obs.events_per_op"] = float64(len(tr.c.Events()))
	if ev := layer["sim.events_per_op"]; ev > 0 {
		layer["sim.ns_per_event"] = e2e["op_s_p50"] * 1e9 / ev
		layer["sim.allocs_per_event"] = float64(ms1.Mallocs-ms0.Mallocs) / n / ev
	}
	if s.rungs != nil {
		rl, err := s.rungs(cfg, &tout)
		if err != nil {
			res.warn("rungs: %v", err)
		}
		for k, v := range rl {
			layer[k] = v
		}
	}
	res.PerLayer = fill(perLayer, layer, layerN)
	res.spans = tr.spans
	return res
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }
