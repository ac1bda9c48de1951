package coll

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Coordinator failover for compiled hierarchical plans.
//
// A plan routes every cross-cluster block through coordinators; when a
// coordinator's node dies mid-run, every rank whose phase depends on it
// stalls forever (the paper's grids lose nodes routinely — batch
// preemption, WAN cuts). FailoverRun wraps the plan executor in an
// epoch protocol:
//
//  1. Ranks run the plan's phases with timed waits instead of blocking
//     waits. A timeout alone proves nothing (a congested WAN tier can
//     stall a phase past any bound), so the stuck rank consults a
//     failure-detector oracle about its unresponsive peers; a confirmed
//     death is declared, the dead node's transport is quenched, and the
//     epoch advances.
//  2. Every live rank joins the new epoch: it snapshots which of its
//     in-flight receives completed (marking the carried blocks that
//     terminate at it as delivered) and cancels the rest, so stale
//     envelopes cannot match recovery-plan receives.
//  3. The last rank to join compiles a recovery plan: the same topology
//     tree with dead coordinators replaced — by the leaf's ranked
//     standby list when one was planned, else the lowest live rank —
//     carrying only blocks not yet at their destination and not
//     involving dead ranks. Recovery tags are offset per epoch so the
//     two plans' messages can never be confused.
//  4. Ranks execute the recovery plan from phase 0. Further deaths
//     advance the epoch again, up to maxEpochs.
//
// Delivery is exactly-once at the application level: a block counts as
// delivered only when its destination rank receives it, each epoch's
// recovery plan excludes already-delivered blocks, and Verify checks
// that no block was delivered twice. Blocks whose source or destination
// died are waived — the collective's semantics cannot be preserved for
// them. The obligations verified are the plan's universe, so the same
// protocol covers every uniform kind Compile compiles: All-to-All's
// full pair matrix, Allgather's forwarded contributions, a rooted
// relay's (src→root) and (root→dst) legs.
//
// Every epoch posts through the plan's own posting loop (HierPlan.post),
// so with no faults the operation sequence is RunPlan's — same order,
// same tags, same sizes — and an empty fault schedule is behaviorally
// identical to the plain executor (the timed waits arm extra timers,
// but those fire as no-ops).

// epochTagStride separates consecutive epochs in tag space. Plan tags
// start at tagHier (6000) and grow by small per-pair counts, and the
// runtime reserves tags at or above 1<<24, so strides of 1<<16 leave
// room for 256 epochs — far above maxEpochs.
const epochTagStride int32 = 1 << 16

const (
	// maxEpochs bounds total epochs (initial + recoveries); a declare
	// that would exceed it abandons the run as Incomplete.
	maxEpochs = 8
	// giveUpAfter bounds consecutive unconfirmed timeouts of a single
	// phase wait before the run is abandoned as Incomplete — the escape
	// hatch for a permanently partitioned network where the oracle
	// confirms no death.
	giveUpAfter = 64
)

// FailoverConfig parameterizes a FailoverRun. A zero Timeout takes the
// default; the function fields are optional.
type FailoverConfig struct {
	// Timeout is the per-phase wait deadline after which a rank
	// consults the failure detector (default 2s of simulated time).
	Timeout sim.Time
	// IsDead is the failure-detector oracle: it reports ground truth
	// about whether a rank's node has been lost. In simulation the
	// fault schedule backs it; a real deployment would substitute a
	// heartbeat detector. A nil oracle never confirms a death, so
	// timeouts are always treated as congestion.
	IsDead func(rank int) bool
	// Quench aborts transport to and from a declared-dead rank (wire to
	// transport.Fabric.Quench) so survivors stop retransmitting into
	// the blackhole. Optional.
	Quench func(rank int)
	// OnDeclare is called once per declared death, with the epoch that
	// detected it. Optional (observability hook).
	OnDeclare func(rank, epoch int, now sim.Time)
	// OnEpoch is called when a new epoch opens. Optional.
	OnEpoch func(epoch int, now sim.Time)
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Timeout == 0 {
		c.Timeout = 2 * sim.Second
	}
	return c
}

// FailoverResult summarizes a completed (or abandoned) failover run.
type FailoverResult struct {
	Epochs          int   // epochs executed (1 = no failover needed)
	Dead            []int // ranks declared dead, ascending
	DeliveredBlocks int   // blocks received at their destination
	WaivedBlocks    int   // blocks waived because an endpoint died
	DuplicateBlocks int   // blocks delivered more than once (must be 0)
	Incomplete      bool  // run abandoned (maxEpochs or giveUpAfter hit)
	// FinishAt is each rank's completion time; zero for ranks that died
	// or were abandoned.
	FinishAt []sim.Time
}

// posted is one rank's outstanding phase: the requests HierPlan.post
// returned for phase ph of epoch st's plan (receives first), kept so
// the epoch transition can snapshot completions and cancel leftovers.
type posted struct {
	st *epochState
	ph hierPhase
	qs []*mpi.Request
}

// msg returns the plan message behind request k and the rank at its
// other end.
func (po posted) msg(k int) (m *hierMsg, peer int) {
	if k < len(po.ph.recvs) {
		m = po.st.plan.msgs[po.ph.recvs[k]]
		return m, m.from
	}
	m = po.st.plan.msgs[po.ph.sends[k-len(po.ph.recvs)]]
	return m, m.to
}

// epochState is the shared per-epoch execution state. Epoch 0 runs the
// base plan; a recovery epoch's plan — compiled by the last rank to
// join, over the blocks still owed — carries tags shifted by tagOff. The
// two futures are the epoch's barriers.
type epochState struct {
	idx    int
	plan   *HierPlan
	tagOff int32
	// joinGate completes when every live rank has joined the epoch and
	// the plan is compiled; gate completes when every live rank has
	// finished the epoch's phases (global done) or the epoch advanced.
	joinGate sim.Future
	gate     sim.Future
	joined   int
	finished int
}

// FailoverRun executes one compiled uniform plan across a world with
// epoch-based coordinator failover. Build one run, then call Run from
// every rank body. All shared state is mutated only from rank
// coroutines, which is race-free under the simulator's one-active-
// process discipline.
type FailoverRun struct {
	base *HierPlan
	cfg  FailoverConfig
	s    *sim.Simulator

	epoch     int
	dead      map[int]bool
	deadList  []int
	delivered map[Block]bool
	universe  []Block // the base plan's delivery obligations
	epochs    []*epochState
	reqs      []posted // per rank: the outstanding current phase
	done      bool
	failed    bool
	finishAt  []sim.Time
	dups      int
	trace     *PhaseTrace
}

// NewFailoverRun prepares a failover execution of a compiled uniform
// plan of any kind with a positive per-rank payload. All-to-Allv plans
// are not supported: a recovery epoch re-sizes the surviving blocks of
// each message, which assumes the uniform block model.
func NewFailoverRun(plan *HierPlan, cfg FailoverConfig) *FailoverRun {
	if plan.Workload.Kind == KindAlltoallv {
		panic("coll: failover supports uniform plans only")
	}
	if plan.Workload.M <= 0 {
		panic(fmt.Sprintf("coll: failover block size %d must be positive", plan.Workload.M))
	}
	n := plan.Tree.NumRanks()
	return &FailoverRun{
		base:      plan,
		cfg:       cfg.withDefaults(),
		dead:      make(map[int]bool),
		delivered: make(map[Block]bool),
		universe:  plan.universe(),
		epochs:    []*epochState{{idx: 0, plan: plan}},
		reqs:      make([]posted, n),
		finishAt:  make([]sim.Time, n),
	}
}

// SetTrace records epoch-0 phase boundaries into pt (built for the base
// plan), mirroring RunPlan's pt argument. Recovery epochs are not
// traced: their plans have their own phase layouts.
func (fr *FailoverRun) SetTrace(pt *PhaseTrace) { fr.trace = pt }

// Run executes the failover protocol for one rank; call it from every
// rank body of the world the plan was compiled for.
func (fr *FailoverRun) Run(r *mpi.Rank) {
	if fr.base.Tree.NumRanks() != r.Size() {
		panic(fmt.Sprintf("coll: plan for %d ranks executed on world of %d",
			fr.base.Tree.NumRanks(), r.Size()))
	}
	me := r.ID()
	if fr.s == nil {
		fr.s = r.Proc().Sim()
	}
	for {
		if fr.failed || fr.dead[me] {
			return
		}
		st := fr.epochs[fr.epoch]
		if fr.runPhases(r, st) {
			st.finished++
			if st.finished >= fr.liveCount() {
				fr.done = true
				fr.sweepQuench()
				st.gate.Complete(fr.s)
			} else {
				r.Proc().Await(&st.gate)
			}
			if fr.done {
				fr.finishAt[me] = r.Now()
				return
			}
		}
		if fr.failed || fr.dead[me] {
			return
		}
		fr.join(r)
	}
}

// runPhases executes the epoch's phases for one rank. It returns true
// when every phase completed, false when the rank abandoned the epoch —
// because it advanced, because this rank declared a death (or was
// declared dead), or because the run gave up.
func (fr *FailoverRun) runPhases(r *mpi.Rank, st *epochState) bool {
	me := r.ID()
	for pi, ph := range st.plan.perRank[me] {
		start := r.Now()
		po := posted{st: st, ph: ph, qs: st.plan.post(r, ph, st.tagOff)}
		if len(po.qs) == 0 {
			continue
		}
		fr.reqs[me] = po
		if !fr.waitPhase(r, st) {
			return false
		}
		for k := range ph.recvs {
			fr.markDelivered(me, po, k)
		}
		fr.reqs[me] = posted{}
		if fr.trace != nil && st.idx == 0 {
			fr.trace.record(pi, me, start, r.Now())
		}
		if fr.epoch != st.idx {
			// The epoch advanced while this phase drained; stop before
			// posting operations no peer will ever match.
			return false
		}
	}
	return true
}

// waitPhase waits for the rank's current-phase requests, invoking the
// failure detector on every timeout. It returns true when the phase
// completed, false when the epoch was abandoned.
func (fr *FailoverRun) waitPhase(r *mpi.Rank, st *epochState) bool {
	me := r.ID()
	spurious := 0
	for {
		po := fr.reqs[me]
		qs := make([]*mpi.Request, 0, len(po.qs))
		for _, q := range po.qs {
			if !q.Done() {
				qs = append(qs, q)
			}
		}
		if len(qs) == 0 {
			return true
		}
		if r.WaitAllTimeout(fr.cfg.Timeout, qs...) {
			return true
		}
		if fr.failed || fr.dead[me] {
			return false
		}
		if fr.epoch != st.idx {
			return false
		}
		var newDead []int
		if fr.cfg.IsDead != nil {
			seen := make(map[int]bool)
			for k, q := range po.qs {
				_, peer := po.msg(k)
				if !q.Done() && !fr.dead[peer] && !seen[peer] && fr.cfg.IsDead(peer) {
					seen[peer] = true
					newDead = append(newDead, peer)
				}
			}
			// A rank whose own node died still runs as a coroutine; its
			// self-check stands in for its peers' detectors noticing the
			// silence, which keeps the protocol single-sided.
			if !fr.dead[me] && fr.cfg.IsDead(me) {
				newDead = append(newDead, me)
			}
		}
		if len(newDead) > 0 {
			sort.Ints(newDead)
			fr.declare(r, st, newDead)
			return false
		}
		spurious++
		if spurious >= giveUpAfter {
			fr.failed = true
			fr.sweepQuench()
			st.gate.Complete(fr.s)
			return false
		}
	}
}

// sweepQuench aborts transport touching ranks that died without ever
// being declared. An All-to-All-shaped plan always detects a death —
// every rank both sends and receives — but a rooted plan can have pure
// receivers: a leaf whose broadcast payload was already in flight when
// its node died completes the run from every survivor's perspective,
// yet its host can no longer acknowledge, so the sender's transport
// would retransmit the tail forever and keep the simulation from
// draining. Called once at every run-ending transition; the swept ranks
// are NOT recorded dead (their obligations were met), only silenced.
func (fr *FailoverRun) sweepQuench() {
	if fr.cfg.IsDead == nil || fr.cfg.Quench == nil {
		return
	}
	for rk := 0; rk < fr.base.Tree.NumRanks(); rk++ {
		if !fr.dead[rk] && fr.cfg.IsDead(rk) {
			fr.cfg.Quench(rk)
		}
	}
}

// declare records confirmed deaths, quenches their transport, and opens
// the next epoch (or abandons the run at the maxEpochs bound). Runs in
// the detecting rank's coroutine; the epoch gate wakes finished ranks.
func (fr *FailoverRun) declare(r *mpi.Rank, st *epochState, ranks []int) {
	now := r.Now()
	for _, d := range ranks {
		fr.dead[d] = true
		fr.deadList = append(fr.deadList, d)
		if fr.cfg.Quench != nil {
			fr.cfg.Quench(d)
		}
		if fr.cfg.OnDeclare != nil {
			fr.cfg.OnDeclare(d, st.idx, now)
		}
	}
	if st.idx+1 >= maxEpochs {
		fr.failed = true
		fr.sweepQuench()
		st.gate.Complete(fr.s)
		return
	}
	fr.epoch = st.idx + 1
	fr.epochs = append(fr.epochs, &epochState{idx: fr.epoch})
	if fr.cfg.OnEpoch != nil {
		fr.cfg.OnEpoch(fr.epoch, now)
	}
	st.gate.Complete(fr.s)
}

// join moves one live rank into the freshly opened epoch: snapshot
// completed receives (marking their terminal blocks delivered), cancel
// unmatched ones, and wait at the join barrier. The last rank to join
// compiles the epoch's recovery plan, so the compile sees every
// survivor's delivery marks. Between the epoch advance and the last
// join no rank executes phases, so the dead set is stable here.
func (fr *FailoverRun) join(r *mpi.Rank) {
	me := r.ID()
	po := fr.reqs[me]
	for k, q := range po.qs[:len(po.ph.recvs)] {
		if q.Done() {
			fr.markDelivered(me, po, k)
		} else {
			r.CancelRecv(q)
		}
	}
	fr.reqs[me] = posted{}
	st := fr.epochs[fr.epoch]
	st.joined++
	if st.joined >= fr.liveCount() {
		fr.compileRecovery(st)
		st.joinGate.Complete(fr.s)
	} else {
		r.Proc().Await(&st.joinGate)
	}
}

// markDelivered records the blocks of po's completed receive k that
// terminate at rank me. Relay hops do not count: exactly-once is an
// application-level property of a block reaching its destination.
func (fr *FailoverRun) markDelivered(me int, po posted, k int) {
	m, _ := po.msg(k)
	for _, b := range m.blocks {
		if b.Dst != me {
			continue
		}
		if fr.delivered[b] {
			fr.dups++
		} else {
			fr.delivered[b] = true
		}
	}
}

// compileRecovery builds the epoch's plan: the base workload over the
// base topology with dead coordinators replaced, carrying only live,
// undelivered blocks — each message re-sized over what it still carries
// by the same payload rule, and gone when nothing is left. Tags are
// offset per epoch so recovery messages can never match a stale posting
// from an earlier epoch.
func (fr *FailoverRun) compileRecovery(st *epochState) {
	plan, err := compile(fr.recoverySpec(), fr.base.Workload, fr.base.Alg, func(b Block) bool {
		return !fr.dead[b.Src] && !fr.dead[b.Dst] && !fr.delivered[b]
	})
	if err != nil {
		// The spec is the validated base tree with coordinators swapped
		// for members of the same subtrees.
		panic("coll: recovery plan: " + err.Error())
	}
	st.plan = plan
	st.tagOff = int32(st.idx) * epochTagStride
}

// recoverySpec rebuilds the base plan's topology spec with every dead
// coordinator replaced by a live one. Dead ranks stay in the tree —
// placements require dense ranks — but carry no traffic: every block
// touching them is waived, so no message involving them exists.
func (fr *FailoverRun) recoverySpec() TreeSpec {
	var walk func(v *pnode) TreeSpec
	walk = func(v *pnode) TreeSpec {
		var s TreeSpec
		if v.leaf() {
			s.Ranks = append([]int(nil), v.ranks...)
			s.Standbys = append([]int(nil), v.standbys...)
		} else {
			for _, c := range v.children {
				s.Children = append(s.Children, walk(c))
			}
		}
		s.Coords = fr.liveCoords(v)
		return s
	}
	return walk(fr.base.Tree.root)
}

// liveCoords rewrites a node's coordinator set over the live ranks,
// preserving ownership order so surviving coordinators keep their
// traffic shares. A fully dead subtree keeps default coords: all of its
// blocks are waived, so its (dead) coordinator is never exercised.
func (fr *FailoverRun) liveCoords(v *pnode) []int {
	alive := false
	for _, rk := range v.ranks {
		if !fr.dead[rk] {
			alive = true
			break
		}
	}
	if !alive {
		return nil
	}
	out := make([]int, 0, len(v.coords))
	used := make(map[int]bool, len(v.coords))
	for _, c := range v.coords {
		pick := c
		if fr.dead[c] || used[c] {
			pick = fr.replacementFor(c, v, used)
		}
		if pick >= 0 {
			out = append(out, pick)
			used[pick] = true
		}
	}
	if len(out) == 0 {
		for _, rk := range v.ranks {
			if !fr.dead[rk] {
				out = append(out, rk)
				break
			}
		}
	}
	return out
}

// replacementFor picks the fill-in for coordinator c at node v: the
// first live, unchosen standby of c's leaf that is a member of v, else
// the lowest live unchosen rank of v, else -1.
func (fr *FailoverRun) replacementFor(c int, v *pnode, used map[int]bool) int {
	tp := fr.base.Tree
	for _, sb := range tp.leaves[tp.leafOf[c]].standbys {
		if !fr.dead[sb] && !used[sb] && v.has(sb) {
			return sb
		}
	}
	for _, rk := range v.ranks {
		if !fr.dead[rk] && !used[rk] {
			return rk
		}
	}
	return -1
}

func (fr *FailoverRun) liveCount() int {
	return fr.base.Tree.NumRanks() - len(fr.deadList)
}

// Result summarizes the run; call it after the world has quiesced.
func (fr *FailoverRun) Result() FailoverResult {
	res := FailoverResult{
		Epochs:          fr.epoch + 1,
		DeliveredBlocks: len(fr.delivered),
		DuplicateBlocks: fr.dups,
		Incomplete:      fr.failed,
		FinishAt:        append([]sim.Time(nil), fr.finishAt...),
	}
	res.Dead = append([]int(nil), fr.deadList...)
	sort.Ints(res.Dead)
	for _, b := range fr.universe {
		if (fr.dead[b.Src] || fr.dead[b.Dst]) && !fr.delivered[b] {
			res.WaivedBlocks++
		}
	}
	return res
}

// Verify checks the run's delivery invariants: every obligation of the
// plan's universe between two surviving ranks arrived at its
// destination exactly once, and nothing arrived twice. It returns nil
// on success.
func (fr *FailoverRun) Verify() error {
	if fr.dups != 0 {
		return fmt.Errorf("coll: %d blocks delivered more than once", fr.dups)
	}
	if fr.failed {
		return fmt.Errorf("coll: failover run abandoned after %d epochs (dead: %v)",
			fr.epoch+1, fr.deadList)
	}
	for _, b := range fr.universe {
		if fr.dead[b.Src] || fr.dead[b.Dst] {
			continue
		}
		if !fr.delivered[b] {
			return fmt.Errorf("coll: block %d→%d never delivered", b.Src, b.Dst)
		}
	}
	return nil
}
