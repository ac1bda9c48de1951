package coll

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Per-phase execution tracing. A compiled HierPlan runs as a sequence
// of post-and-wait phases on every rank; when a deep plan underperforms
// its prediction, the end-to-end makespan says nothing about *which*
// phase — the tier exchange, the leaf gather, a scatter level — ate the
// time. A PhaseTrace records each rank's phase boundaries (simulated
// time, so the trace is deterministic under a fixed seed) and reduces
// them to per-phase spans.

// PhaseTrace records per-rank phase boundaries of one plan's
// execution. It is sized for a specific plan and world; ranks write
// disjoint slots, which is race-free under the simulator's one-active-
// process discipline (the same structure coll.Measure relies on). Under
// repeated executions (warmup + reps) each rank overwrites its slots,
// so the trace reflects the final repetition.
type PhaseTrace struct {
	plan   *HierPlan
	starts [][]sim.Time // [phase][rank]
	ends   [][]sim.Time
	active [][]bool // rank posted operations in the phase
}

// NewPhaseTrace builds a trace sized for the plan's phases and ranks.
func NewPhaseTrace(plan *HierPlan) *PhaseTrace {
	n := plan.Tree.NumRanks()
	p := plan.NumPhases()
	pt := &PhaseTrace{plan: plan}
	pt.starts = make([][]sim.Time, p)
	pt.ends = make([][]sim.Time, p)
	pt.active = make([][]bool, p)
	for i := 0; i < p; i++ {
		pt.starts[i] = make([]sim.Time, n)
		pt.ends[i] = make([]sim.Time, n)
		pt.active[i] = make([]bool, n)
	}
	return pt
}

// record stores one rank's boundaries for a phase it participated in.
func (pt *PhaseTrace) record(phase, rank int, start, end sim.Time) {
	pt.starts[phase][rank] = start
	pt.ends[phase][rank] = end
	pt.active[phase][rank] = true
}

// PhaseSpan is one phase's reduction over the ranks that posted
// operations in it: earliest post time and latest completion, both in
// seconds relative to the first recorded post of the whole execution.
type PhaseSpan struct {
	Phase int
	Label string
	Start float64 // seconds from the execution's first post
	End   float64
	Ranks int // ranks that posted operations in the phase
}

// Dur returns the span's width in seconds.
func (s PhaseSpan) Dur() float64 { return s.End - s.Start }

// Spans reduces the recorded boundaries to one span per phase that saw
// any activity, in phase order.
func (pt *PhaseTrace) Spans() []PhaseSpan {
	t0 := sim.Time(-1)
	for p := range pt.starts {
		for r := range pt.starts[p] {
			if pt.active[p][r] && (t0 < 0 || pt.starts[p][r] < t0) {
				t0 = pt.starts[p][r]
			}
		}
	}
	var out []PhaseSpan
	for p := range pt.starts {
		lo, hi, ranks := sim.Time(-1), sim.Time(0), 0
		for r := range pt.starts[p] {
			if !pt.active[p][r] {
				continue
			}
			ranks++
			if lo < 0 || pt.starts[p][r] < lo {
				lo = pt.starts[p][r]
			}
			if pt.ends[p][r] > hi {
				hi = pt.ends[p][r]
			}
		}
		if ranks == 0 {
			continue
		}
		out = append(out, PhaseSpan{
			Phase: p, Label: pt.plan.phaseLabel(p),
			Start: (lo - t0).Seconds(), End: (hi - t0).Seconds(), Ranks: ranks,
		})
	}
	return out
}

// phaseLabel names phase i of the plan in terms of the algorithm's
// structure. For HierGather the compiler's phase layout is: phase 0 the
// intra-leaf exchange, phase 1 the leaf gather, phase 1+h the tier-h
// coordinator exchange, and phase 1+H+d the depth-d scatter (H the tree
// height). HierDirect phases are dependency levels of the overlapped
// relay, which interleave gather, exchange, and scatter traffic.
func (p *HierPlan) phaseLabel(i int) string {
	if p.Workload.Kind.relayed() {
		// Rooted relays share one phase layout across both algorithm
		// variants: one relay level per phase (Allreduce runs the reduce
		// levels first, then the broadcast levels).
		return fmt.Sprintf("relay-%d", i)
	}
	if p.Alg == HierGather {
		h := p.Tree.Height()
		switch {
		case i == 0:
			return "intra"
		case i == 1:
			return "leaf-gather"
		case i <= 1+h:
			return fmt.Sprintf("tier-%d-exchange", i-1)
		default:
			return fmt.Sprintf("scatter-depth-%d", i-1-h)
		}
	}
	return fmt.Sprintf("level-%d", i)
}

// post posts rank r's operations of one phase — every receive, then
// every send, so a rendezvous peer always finds its receive waiting —
// with tags shifted by tagOff, and returns the requests in posting
// order: the first len(ph.recvs) are the receives. It is the one loop
// that turns plan messages into mpi operations; the plain executor and
// the failover runtime differ only in how they wait on the result.
func (p *HierPlan) post(r *mpi.Rank, ph hierPhase, tagOff int32) []*mpi.Request {
	qs := make([]*mpi.Request, 0, len(ph.recvs)+len(ph.sends))
	for _, i := range ph.recvs {
		m := p.msgs[i]
		qs = append(qs, r.Irecv(m.from, m.tag+tagOff))
	}
	for _, i := range ph.sends {
		m := p.msgs[i]
		qs = append(qs, r.Isend(m.to, m.tag+tagOff, m.bytes))
	}
	return qs
}

// RunPlan executes a compiled plan on the calling rank — the one
// executor of every kind's hierarchical plan. Each phase posts its
// receives and sends and waits for all of them; phases run in order on
// each rank with no global barrier, and a phase the rank has no
// message in costs nothing. Payloads are the bytes Compile sized, so a
// pair that owes no bytes pays no start-up. A non-nil pt (built for
// this plan) records the rank's phase boundaries. Every rank of the
// plan's topology must call it with the same plan.
func RunPlan(r *mpi.Rank, plan *HierPlan, pt *PhaseTrace) {
	if plan.Tree.NumRanks() != r.Size() {
		panic(fmt.Sprintf("coll: plan for %d ranks executed on world of %d",
			plan.Tree.NumRanks(), r.Size()))
	}
	for pi, ph := range plan.perRank[r.ID()] {
		start := r.Now()
		qs := plan.post(r, ph, 0)
		if len(qs) == 0 {
			continue
		}
		r.WaitAll(qs...)
		if pt != nil {
			pt.record(pi, r.ID(), start, r.Now())
		}
	}
}
