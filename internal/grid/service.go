package grid

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/coll"
	"repro/internal/obs"
)

// Service is the planner as a long-lived, concurrency-safe layer: one
// Options configuration, one CurveStore of fitted curves, and a cache
// of assembled planners keyed by topology structure. The paper's
// workflow is characterize once, predict many times — Service is the
// "many times": N goroutines may call Predict/Best/SelectCoordinators
// concurrently over any mix of topologies, characterization runs
// single-flight (simultaneous first requests for one topology probe
// once, the rest wait for the same planner), and the store carries the
// fits across topologies sharing structure and — through WriteJSON /
// ReadCurveStore — across processes.
//
// Topologies are identified by their structure (TierKey of the root):
// two trees differing only in node names share one planner, exactly as
// they would produce bit-identical planners built separately.
type Service struct {
	opt   Options
	store *CurveStore

	mu      sync.Mutex
	entries map[string]*serviceEntry
	// tick is a logical clock for LRU eviction: it advances on every
	// cache touch, and each entry remembers the tick of its last use.
	// The cache is bounded at opt.CacheCap entries; inserting past the
	// cap evicts the least-recently-used ready entry (in-flight builds
	// are never evicted — waiters hold their channel). Evicted planners
	// are not lost work: the store keeps every fitted record, so a
	// re-requested topology rebuilds warm, without probe simulations.
	tick uint64
}

// serviceEntry is one cached planner build. ready closes when the
// build (pl, err) is final; mu then serializes model mutation:
// predictions are pure model reads and take it shared, while
// SelectCoordinators mutates per-leaf coordinator fields and the
// strategy factor curves and takes it exclusively.
type serviceEntry struct {
	ready chan struct{}
	mu    sync.RWMutex
	pl    *Planner
	err   error
	// lastUsed is the service tick of the entry's most recent touch,
	// read and written under Service.mu.
	lastUsed uint64
}

// NewService returns a service over a fresh in-memory store.
func NewService(opt Options) (*Service, error) {
	return NewServiceWithStore(opt, NewCurveStore())
}

// NewServiceWithStore returns a service over an existing store —
// typically one loaded with ReadCurveStore to reuse another process's
// characterization. The store must be empty or fitted under the same
// probe configuration: fitted values are functions of every sweep,
// cap, and seed in Options, so a mismatch is an error, not a warm
// start.
func NewServiceWithStore(opt Options, st *CurveStore) (*Service, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if st == nil {
		st = NewCurveStore()
	}
	if err := st.bind(opt.fingerprint()); err != nil {
		return nil, err
	}
	return &Service{opt: opt, store: st, entries: map[string]*serviceEntry{}}, nil
}

// Store returns the service's curve store (for WriteJSON or direct
// Invalidate; the store is itself safe for concurrent use).
func (s *Service) Store() *CurveStore { return s.store }

// SaveStore serializes the store (see CurveStore.WriteJSON).
func (s *Service) SaveStore(w io.Writer) error { return s.store.WriteJSON(w) }

// PlannerFor returns the cached planner of the topology, building and
// characterizing it on first request. Concurrent first requests are
// single-flight: one caller builds, the rest block until the same
// planner (or error) is ready. Build errors are deterministic in
// (topology, Options) — an invalid tree stays invalid — so they cache
// like successes.
//
// The returned planner is shared: concurrent Predict*/Best* calls on
// it are safe only through the service's methods (which hold the
// entry's read-write lock around SelectCoordinators' model mutation);
// callers using the planner directly must not race its SelectCoordinators.
func (s *Service) PlannerFor(topo cluster.TopoNode) (*Planner, error) {
	e := s.entryFor(topo)
	return e.pl, e.err
}

// entryFor returns the topology's entry, building it single-flight.
// Every hit or insert stamps the entry's LRU tick; an insert past
// Options.CacheCap evicts the least-recently-used ready entry first.
func (s *Service) entryFor(topo cluster.TopoNode) *serviceEntry {
	key := topoKey(topo)
	s.mu.Lock()
	s.tick++
	if e, ok := s.entries[key]; ok {
		e.lastUsed = s.tick
		s.mu.Unlock()
		<-e.ready
		return e
	}
	e := &serviceEntry{ready: make(chan struct{}), lastUsed: s.tick}
	s.entries[key] = e
	s.evictLocked()
	s.mu.Unlock()
	e.pl, e.err = newPlannerWithStore(topo, s.opt, s.store)
	close(e.ready)
	return e
}

// evictLocked drops least-recently-used ready entries until the cache
// fits opt.CacheCap. Called with s.mu held. Only ready entries are
// candidates: evicting an in-flight build would strand its waiters and
// duplicate the probes it is already running.
func (s *Service) evictLocked() {
	for len(s.entries) > s.opt.CacheCap {
		var victimKey string
		var victim *serviceEntry
		for k, e := range s.entries {
			select {
			case <-e.ready:
			default:
				continue // in-flight: never evicted
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return // everything in flight; retry on the next insert
		}
		delete(s.entries, victimKey)
		if s.opt.Trace != nil {
			s.opt.Trace.Add(CtrServiceEvict, 1)
		}
	}
}

// predict serves every Predict*/Best* request: the topology's planner
// (characterized on first use), the workload checked against its rank
// count — requests are external input, so a matrix of the wrong rank
// count or a negative size is coll.Workload.Validate's named error, not
// a panic inside the model — and the prediction core, both run under the
// entry's shared lock (TotalNodes copies the whole model value, factor
// fields a concurrent selection rewrites included): predictions are pure
// model reads, and the lazy per-kind calibration is internally locked and
// never mutates the model.
func (s *Service) predict(topo cluster.TopoNode, w coll.Workload) ([]Prediction, error) {
	e := s.entryFor(topo)
	if e.err != nil {
		return nil, e.err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := w.Validate(e.pl.Model.TotalNodes()); err != nil {
		return nil, err
	}
	return e.pl.predict(w)
}

// selectCoordinators serves every SelectCoordinators* request under the
// entry's exclusive lock (selection mutates the model's per-leaf
// coordinator fields and refits ω/κ); concurrent predictions on the same
// topology observe either the pre- or post-selection model, never a
// partial write.
func (s *Service) selectCoordinators(topo cluster.TopoNode, w coll.Workload) ([]CoordChoice, error) {
	e := s.entryFor(topo)
	if e.err != nil {
		return nil, e.err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pl.selectCoordinators(w)
}

// Predict returns every strategy's predicted completion time for an
// All-to-All of per-pair size m on the topology, fastest first,
// characterizing on first use. Safe for concurrent use.
func (s *Service) Predict(topo cluster.TopoNode, m int) ([]Prediction, error) {
	return s.predict(topo, coll.Uniform(coll.KindAlltoall, m))
}

// Best returns the predicted-fastest strategy for size m on the
// topology. Safe for concurrent use.
func (s *Service) Best(topo cluster.TopoNode, m int) (Prediction, error) {
	return first(s.Predict(topo, m))
}

// PredictV returns every strategy's predicted completion time for the
// irregular exchange sz on the topology, fastest first. A matrix whose
// rank count does not match the topology is an error. Safe for
// concurrent use.
func (s *Service) PredictV(topo cluster.TopoNode, sz coll.SizeMatrix) ([]Prediction, error) {
	return s.predict(topo, coll.Irregular(sz))
}

// BestV returns the predicted-fastest strategy for the size matrix sz
// on the topology. Safe for concurrent use.
func (s *Service) BestV(topo cluster.TopoNode, sz coll.SizeMatrix) (Prediction, error) {
	return first(s.PredictV(topo, sz))
}

// PredictKind returns every candidate strategy's predicted completion
// time for a collective of the given kind at per-rank contribution m on
// the topology, fastest first, characterizing on first use.
// KindAlltoall is served bit-identically to Predict; other kinds may
// lazily calibrate their correction curve on first request (probe
// simulations recorded in the shared store, so later requests — and
// later processes loading the store — predict without probing). Safe
// for concurrent use.
func (s *Service) PredictKind(topo cluster.TopoNode, kind coll.Kind, m int) ([]Prediction, error) {
	return s.predict(topo, coll.Uniform(kind, m))
}

// BestKind returns the predicted-fastest strategy for the kind at
// per-rank contribution m on the topology. Safe for concurrent use.
func (s *Service) BestKind(topo cluster.TopoNode, kind coll.Kind, m int) (Prediction, error) {
	return first(s.PredictKind(topo, kind, m))
}

// SelectCoordinators runs bandwidth-aware coordinator selection at
// size m on the topology's cached planner. Safe for concurrent use.
func (s *Service) SelectCoordinators(topo cluster.TopoNode, m int) ([]CoordChoice, error) {
	return s.selectCoordinators(topo, coll.Uniform(coll.KindAlltoall, m))
}

// SelectCoordinatorsV is SelectCoordinators for an irregular exchange.
func (s *Service) SelectCoordinatorsV(topo cluster.TopoNode, sz coll.SizeMatrix) ([]CoordChoice, error) {
	return s.selectCoordinators(topo, coll.Irregular(sz))
}

// SelectCoordinatorsKind runs coordinator selection with candidates
// priced through the kind's hierarchical model. Safe for concurrent use.
func (s *Service) SelectCoordinatorsKind(topo cluster.TopoNode, kind coll.Kind, m int) ([]CoordChoice, error) {
	return s.selectCoordinators(topo, coll.Uniform(kind, m))
}

// Invalidate declares one tier's characterization stale — its WAN
// changed, remeasure — and returns the number of store records
// dropped: the tier's measured curve and γ fit, every ancestor tier's
// fits, and the strategy fits of every topology containing the tier
// (CurveStore.Invalidate's substring rule over the compositional
// TierKey). Cached planners whose topology contains the tier are
// dropped too; their next PlannerFor re-fits incrementally, reusing
// every surviving record. Builds already in flight when Invalidate
// runs complete with their own (pre-invalidation) fits, but the
// store's build-epoch guard bars them from writing those fits back
// (counted under store.stale_drop) — the next build after the
// invalidation always re-probes the invalidated records.
func (s *Service) Invalidate(tierKey string) int {
	if tierKey == "" {
		return 0
	}
	s.mu.Lock()
	planners := 0
	for k := range s.entries {
		if strings.Contains(k, tierKey) {
			delete(s.entries, k)
			planners++
		}
	}
	s.mu.Unlock()
	records := s.store.Invalidate(tierKey)
	sp := s.opt.Trace.Span("service.invalidate",
		obs.Int("planners", planners), obs.Int("records", records))
	sp.End()
	return records
}

// DeltaThreshold is the relative throughput deviation below which
// ReportDelta skips replanning: WAN rates jitter a few percent without
// the strategy ranking moving, and replanning on noise would churn the
// store for nothing.
const DeltaThreshold = 0.10

// Delta is one monitored deviation report against a tier's
// characterized behavior.
type Delta struct {
	// RateFactor is the observed throughput over the characterized
	// throughput on the tier: 1 means nominal, 0.5 half speed, 1.5
	// a recovered or upgraded link.
	RateFactor float64
	// Size is the per-pair message size to re-rank strategies at after
	// the refit; zero defaults to 64 KiB.
	Size int
	// Source labels the reporting monitor in the trace.
	Source string
}

// Replan reports what ReportDelta did.
type Replan struct {
	// Skipped is true when the delta was inside DeltaThreshold and
	// nothing was invalidated or refitted.
	Skipped bool
	// DroppedRecords is how many store records the invalidation hit.
	DroppedRecords int
	// Predictions ranks the strategies after the refit, fastest first.
	Predictions []Prediction
	// Choices is the post-refit coordinator selection.
	Choices []CoordChoice
	// Spec is the post-refit plan spec (coordinators and standbys
	// annotated), ready for coll.Compile.
	Spec coll.TreeSpec
}

// ReportDelta reacts to a monitored deviation on one tier: a delta past
// DeltaThreshold invalidates exactly that tier's characterization (the
// compositional-key rule takes ancestors and containing strategy fits
// with it), rebuilds the topology's planner warm — unaffected tiers hit
// the store and are not re-probed; only the invalidated path refits,
// counted under store.refit — re-runs coordinator selection, and
// re-ranks the strategies at d.Size.
//
// topo must describe the grid as it is now: a degraded NIC shows up as
// the changed NodeLinkRates entry, which changes the leaf's TierKey so
// its old curves cannot be mistaken for current ones, and the refit's
// headroom probes then steer coordinators off the degraded port.
// Deltas are monitor input: a RateFactor that is not a positive finite
// number or a negative Size is rejected by name before anything is
// invalidated. Safe for concurrent use; concurrent ReportDelta calls for
// one topology serialize on the entry lock like SelectCoordinators.
func (s *Service) ReportDelta(topo cluster.TopoNode, tierKey string, d Delta) (*Replan, error) {
	if math.IsNaN(d.RateFactor) || math.IsInf(d.RateFactor, 0) || d.RateFactor <= 0 {
		return nil, fmt.Errorf("grid: Delta.RateFactor %v is not a positive finite ratio", d.RateFactor)
	}
	if d.Size < 0 {
		return nil, fmt.Errorf("grid: Delta.Size %d is negative", d.Size)
	}
	if math.Abs(d.RateFactor-1) < DeltaThreshold {
		return &Replan{Skipped: true}, nil
	}
	if d.Size == 0 {
		d.Size = 64 << 10
	}
	sp := s.opt.Trace.Span("service.replan",
		obs.Str("tier", tierKey), obs.Str("source", d.Source),
		obs.F64("rate_factor", d.RateFactor), obs.Int("size", d.Size))
	defer sp.End()
	dropped := s.Invalidate(tierKey)
	e := s.entryFor(topo)
	if e.err != nil {
		return nil, e.err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	choices, err := e.pl.SelectCoordinators(d.Size)
	if err != nil {
		return nil, err
	}
	return &Replan{
		DroppedRecords: dropped,
		Predictions:    e.pl.Predict(d.Size),
		Choices:        choices,
		Spec:           e.pl.PlanSpec(),
	}, nil
}

// Len reports how many planners the service currently caches.
func (s *Service) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
