package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
)

// CurveStore is the planner's persistent characterization cache: every
// fitted artifact of the characterize→fit pipeline, keyed by the
// collision-hardened field-wise keys (profileKey for member networks,
// topoKey for tiers and whole topologies). The paper's workflow is
// characterize once, predict many times — the store is the "once": a
// planner built through it probes only the records it cannot find,
// reuses everything else bit-identically, and writes its own fits back
// for the next planner (or, via the deterministic JSON form, the next
// process).
//
// Record kinds and their keys:
//
//	leaves      profileKey(p)            Hockney + contention signature
//	headroom    profileKey(p)|nodes      per-node probed NIC rates
//	tiers       topoKey(tier)            measured WAN transfer curve
//	gammas      topoKey(tier)            fitted per-tier γ_wan curve
//	            "K|"+kind+"|"+topoKey    per-kind hierarchical correction
//	strategies  "S|"+topoKey(topo)       initial ω/κ strategy curves
//	            "R|"+topoKey(topo)+sel   post-selection ω/κ refits
//
// Per-kind corrections (kinds.go) live in the gammas map under "K|"
// keys, so collective-suite fits persist through the version-1 schema
// unchanged and an Alltoall-only store serializes byte-identically to
// the pre-suite planner's.
//
// topoKey is compositional — a subtree's key is a substring of every
// ancestor's — which is what makes Invalidate's semantics exact: a
// record is stale if and only if its keyed structure contains the
// invalidated subtree, so dropping records whose key contains the tier
// key removes the tier's own fits, every ancestor fit derived from
// them (tier fitting is bottom-up), and the whole-tree strategy fits,
// while sibling tiers and all member-network fits survive.
//
// All methods are safe for concurrent use. Records are write-once per
// key in practice (planners only put on a miss), so concurrent writers
// of the same key — two single-flight builds of different topologies
// sharing a tier — write identical deterministic values.
type CurveStore struct {
	mu sync.RWMutex
	// optKey pins the Options fingerprint the fits were produced under;
	// fitted values depend on probe sweeps and seeds, so a store is only
	// valid for the exact configuration that filled it (bind rejects
	// mismatches instead of silently mispredicting).
	optKey     string
	leaves     *table[storedLeaf]
	headroom   *table[[]float64]
	tiers      *table[storedTier]
	gammas     *table[model.FactorCurve]
	strategies *table[storedStrategy]
	// epoch is the build-epoch guard against the Invalidate race: every
	// Invalidate bumps it, and a put carrying an older epoch (a build
	// that started before the invalidation) is dropped instead of
	// re-inserting records fitted from pre-invalidation simulations.
	epoch uint64
	// invalidated accumulates every tier key passed to Invalidate over
	// the store's lifetime. SaveFile's merge consults it so records a
	// caller deliberately dropped are not resurrected from an older
	// on-disk snapshot.
	invalidated []string
}

// StoreVersion is the serialized store's schema version. Load rejects
// any other value: a schema drift (re-keyed records, re-shaped curves)
// must fail loudly, not deserialize into wrong predictions.
const StoreVersion = 1

// storedLeaf is one member network's characterization.
type storedLeaf struct {
	Hockney   model.Hockney
	Signature model.Signature
}

// storedTier is one tier's measured WAN transfer curve (the fitted
// γ_wan curve is a separate record: Invalidate-driven refits re-measure
// both, but tier curves are also consumed by ancestors' fits).
type storedTier struct {
	Curve    []model.WANPoint
	BetaWire float64
}

// storedStrategy is one whole-topology strategy-factor fit.
type storedStrategy struct {
	Omega model.FactorCurve
	Kappa model.FactorCurve
}

// table is one of the store's five keyed record maps — the single
// mechanism behind every record kind. The owning store's lock guards m
// and its build epoch gates put; all a table supplies of its own is how
// to validate one record and how to deep-copy one.
type table[V any] struct {
	st *CurveStore
	m  map[string]V
	// label names the table in load errors.
	label string
	// check validates one record before a load makes it servable.
	check func(V) error
	// clone deep-copies one record. It runs in both directions — on put
	// and on get — so neither the writer's value nor a value handed to a
	// planner (whose exported fields callers may mutate) shares backing
	// arrays with the stored record.
	clone func(V) V
}

func newTable[V any](st *CurveStore, label string, check func(V) error, clone func(V) V) *table[V] {
	return &table[V]{st: st, m: map[string]V{}, label: label, check: check, clone: clone}
}

// get returns a private copy of the record stored under key.
func (t *table[V]) get(key string) (V, bool) {
	t.st.mu.RLock()
	defer t.st.mu.RUnlock()
	v, ok := t.m[key]
	if ok {
		v = t.clone(v)
	}
	return v, ok
}

// put stores a private copy of v under key. It carries the writing
// build's epoch snapshot and reports whether the record was stored
// (false: the build is stale — an Invalidate happened after it started).
func (t *table[V]) put(epoch uint64, key string, v V) bool {
	t.st.mu.Lock()
	defer t.st.mu.Unlock()
	if epoch != t.st.epoch {
		return false
	}
	t.m[key] = t.clone(v)
	return true
}

// drop deletes every record whose key contains sub and returns how many
// it deleted. Called with the store's lock held.
func (t *table[V]) drop(sub string) int {
	before := len(t.m)
	maps.DeleteFunc(t.m, func(k string, _ V) bool { return strings.Contains(k, sub) })
	return before - len(t.m)
}

// load validates a deserialized map and makes its records servable.
func (t *table[V]) load(recs map[string]V) error {
	for k, v := range recs {
		if err := t.check(v); err != nil {
			return fmt.Errorf("grid: store %s %q: %w", t.label, k, err)
		}
		t.m[k] = v
	}
	return nil
}

// mergeDisk folds an on-disk table under an in-memory snapshot of it:
// memory wins every conflict, and disk records absent from memory are
// kept unless their key contains one of the invalidated tier keys.
func mergeDisk[V any](mem map[string]V, disk *table[V], invalidated []string) {
	for k, v := range disk.m {
		_, have := mem[k]
		if !have && !slices.ContainsFunc(invalidated, func(tk string) bool { return strings.Contains(k, tk) }) {
			mem[k] = v
		}
	}
}

// storeFile is the serialized form. Maps marshal with sorted keys and
// floats in shortest-round-trip form, so the output is deterministic
// and a save→load cycle reproduces every fitted value bit-identically.
type storeFile struct {
	Version    int                          `json:"version"`
	Options    string                       `json:"options,omitempty"`
	Leaves     map[string]storedLeaf        `json:"leaves,omitempty"`
	Headroom   map[string][]float64         `json:"headroom,omitempty"`
	Tiers      map[string]storedTier        `json:"tiers,omitempty"`
	Gammas     map[string]model.FactorCurve `json:"gammas,omitempty"`
	Strategies map[string]storedStrategy    `json:"strategies,omitempty"`
}

// encode renders the file as the store's one on-disk format.
func (f storeFile) encode() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", " ")
	return append(b, '\n'), err
}

func cloneCurve(c model.FactorCurve) model.FactorCurve {
	return model.FactorCurve{Points: slices.Clone(c.Points)}
}

// NewCurveStore returns an empty store.
func NewCurveStore() *CurveStore {
	s := &CurveStore{}
	s.leaves = newTable(s, "leaf",
		func(v storedLeaf) error { return errors.Join(v.Hockney.Validate(), v.Signature.Validate()) },
		func(v storedLeaf) storedLeaf { return v })
	s.headroom = newTable(s, "headroom",
		func(rates []float64) error {
			for i, r := range rates {
				if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
					return fmt.Errorf("entry %d is unusable: %v", i, r)
				}
			}
			return nil
		},
		slices.Clone[[]float64])
	s.tiers = newTable(s, "tier",
		// Re-validate through WANModel so tier records obey the same
		// interpolation invariants the planner's own fits do.
		func(v storedTier) error { return model.WANModel{Curve: v.Curve, BetaWire: v.BetaWire}.Validate() },
		func(v storedTier) storedTier { return storedTier{Curve: slices.Clone(v.Curve), BetaWire: v.BetaWire} })
	s.gammas = newTable(s, "gamma", model.FactorCurve.Validate, cloneCurve)
	s.strategies = newTable(s, "strategy",
		func(v storedStrategy) error {
			if err := v.Omega.Validate(); err != nil {
				return fmt.Errorf("omega: %w", err)
			}
			if err := v.Kappa.Validate(); err != nil {
				return fmt.Errorf("kappa: %w", err)
			}
			return nil
		},
		func(v storedStrategy) storedStrategy {
			return storedStrategy{Omega: cloneCurve(v.Omega), Kappa: cloneCurve(v.Kappa)}
		})
	return s
}

// bind pins the store to an Options fingerprint. The first bind adopts
// the fingerprint; later binds must match — fitted values depend on the
// probe configuration, so serving one configuration's curves to another
// would mispredict silently.
func (s *CurveStore) bind(optKey string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.optKey == "" {
		s.optKey = optKey
		return nil
	}
	if s.optKey != optKey {
		return fmt.Errorf("grid: store was fitted under different options:\n  store:   %s\n  request: %s", s.optKey, optKey)
	}
	return nil
}

// Len returns the total record count across all kinds.
func (s *CurveStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.leaves.m) + len(s.headroom.m) + len(s.tiers.m) + len(s.gammas.m) + len(s.strategies.m)
}

// Invalidate drops every record whose keyed structure contains the
// given tier key (see TierKey): the tier's measured curve and fitted
// γ_wan, every ancestor tier's fits (fitted bottom-up through this
// tier's curve), and the strategy fits of every topology containing the
// tier. Member-network characterizations and unrelated tiers survive,
// so the next planner build re-probes only what the invalidation
// actually touched — the incremental re-fit path. Returns the number of
// records dropped.
//
// Invalidate also advances the store's build epoch: a planner build
// that started before the invalidation carries the old epoch and its
// write-backs are silently dropped (counted under store.stale_drop), so
// an in-flight build can never re-insert records fitted from
// pre-invalidation simulations. The epoch bumps even when zero records
// match — the in-flight build may not have written its records yet.
func (s *CurveStore) Invalidate(tierKey string) int {
	if tierKey == "" {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	s.invalidated = append(s.invalidated, tierKey)
	return s.tiers.drop(tierKey) + s.gammas.drop(tierKey) + s.strategies.drop(tierKey)
}

// snapshot copies the store's records into a serializable storeFile
// under the read lock, along with the invalidation history. The maps
// are fresh, so a caller (SaveFile's merge) may add to them without
// touching the live store; the records are shared, which is safe because
// stored records are never mutated in place.
func (s *CurveStore) snapshot() (storeFile, []string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return storeFile{
		Version:    StoreVersion,
		Options:    s.optKey,
		Leaves:     maps.Clone(s.leaves.m),
		Headroom:   maps.Clone(s.headroom.m),
		Tiers:      maps.Clone(s.tiers.m),
		Gammas:     maps.Clone(s.gammas.m),
		Strategies: maps.Clone(s.strategies.m),
	}, slices.Clone(s.invalidated)
}

// WriteJSON serializes the store. The output is deterministic — map
// keys sort, floats render in shortest round-trip form — so two stores
// holding the same fits serialize byte-identically, and re-saving a
// loaded store reproduces the file.
func (s *CurveStore) WriteJSON(w io.Writer) error {
	f, _ := s.snapshot()
	b, err := f.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// SaveFile atomically writes the store to path: the JSON form goes to a
// temp file in the same directory, is synced, and is renamed over path,
// so a crash mid-save (or a concurrent reader/saver) observes either
// the old complete file or the new complete file — never a torn one.
//
// When path already holds a loadable store fitted under the same
// Options fingerprint, the save merges rather than overwrites, so
// concurrent processes characterizing different topologies against one
// file compose instead of clobbering each other: on-disk records this
// store lacks survive (minus any whose key contains a tier key passed to
// Invalidate since the store was created — a deliberate refit must not
// resurrect stale fits from an older save), records present in both take
// the in-memory value, and the in-memory store itself is never mutated.
// A missing, corrupt, or differently-fingerprinted file is replaced
// wholesale.
func (s *CurveStore) SaveFile(path string) error {
	mem, invalidated := s.snapshot()
	if disk, err := LoadCurveStoreFile(path); err == nil && disk.optKey == mem.Options {
		// Member-network fits are never invalidated (see Invalidate).
		mergeDisk(mem.Leaves, disk.leaves, nil)
		mergeDisk(mem.Headroom, disk.headroom, nil)
		mergeDisk(mem.Tiers, disk.tiers, invalidated)
		mergeDisk(mem.Gammas, disk.gammas, invalidated)
		mergeDisk(mem.Strategies, disk.strategies, invalidated)
	}
	b, err := mem.encode()
	if err != nil {
		return fmt.Errorf("grid: saving store to %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("grid: saving store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("grid: saving store to %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("grid: saving store to %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("grid: saving store to %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("grid: saving store to %s: %w", path, err)
	}
	return nil
}

// LoadCurveStoreFile loads a store saved by SaveFile (or WriteJSON),
// with ReadCurveStore's full validation. A missing file returns the
// os.Open error unwrapped, so callers can keep their os.IsNotExist
// handling.
func LoadCurveStoreFile(path string) (*CurveStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := ReadCurveStore(f)
	if err != nil {
		return nil, fmt.Errorf("grid: loading store %s: %w", path, err)
	}
	return st, nil
}

// ReadCurveStore deserializes a store written by WriteJSON, validating
// the schema version and every curve before any record becomes
// servable: a version drift or a corrupt curve (non-finite, mis-ordered
// points) fails the load with a clear error instead of silently
// mispredicting later.
func ReadCurveStore(r io.Reader) (*CurveStore, error) {
	var f storeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("grid: store is not valid JSON (truncated or torn write?): %w", err)
	}
	// A complete save is exactly one JSON document plus whitespace;
	// anything after it means a torn or concatenated write, and
	// partially applying records would mispredict silently.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("grid: store has trailing data after the JSON document (torn or concatenated write?)")
	}
	if f.Version != StoreVersion {
		return nil, fmt.Errorf("grid: store schema version %d, this build reads version %d — refit the store",
			f.Version, StoreVersion)
	}
	st := NewCurveStore()
	st.optKey = f.Options
	if err := errors.Join(st.leaves.load(f.Leaves), st.headroom.load(f.Headroom), st.tiers.load(f.Tiers),
		st.gammas.load(f.Gammas), st.strategies.load(f.Strategies)); err != nil {
		return nil, err
	}
	return st, nil
}

// TierKey returns the canonical cache key of a topology subtree — the
// identity Invalidate matches records against, and the key PlannerFor
// caches planners under when given the whole topology. Node names are
// excluded (structurally identical tiers share fits); pass the subtree
// value the topology was built from, e.g. topo.Children[0].
func TierKey(t cluster.TopoNode) string { return topoKey(t) }

// recordKind is one of the seven things a planner characterizes. Kinds
// that share a curve shape share a table (refit with strategy, kind with
// gamma — told apart by key prefix) but trace under their own name, so a
// warm collective-suite build is distinguishable from a warm tier fit.
type recordKind[V any] struct {
	// name is the "kind" attribute of store.hit/store.miss events.
	name string
	// memo reports that a build looks the same key up repeatedly (members
	// sharing a profile, isomorphic tiers, every prediction of a kind)
	// and must fit, and count the store lookup, only the first time.
	memo  bool
	table func(*CurveStore) *table[V]
}

var (
	recLeaf     = recordKind[storedLeaf]{"leaf", true, func(s *CurveStore) *table[storedLeaf] { return s.leaves }}
	recHeadroom = recordKind[[]float64]{"headroom", true, func(s *CurveStore) *table[[]float64] { return s.headroom }}
	recTier     = recordKind[storedTier]{"tier", true, func(s *CurveStore) *table[storedTier] { return s.tiers }}
	recGamma    = recordKind[model.FactorCurve]{"gamma", true, func(s *CurveStore) *table[model.FactorCurve] { return s.gammas }}
	recKind     = recordKind[model.FactorCurve]{"kind", true, func(s *CurveStore) *table[model.FactorCurve] { return s.gammas }}
	recStrategy = recordKind[storedStrategy]{"strategy", false, func(s *CurveStore) *table[storedStrategy] { return s.strategies }}
	recRefit    = recordKind[storedStrategy]{"refit", false, func(s *CurveStore) *table[storedStrategy] { return s.strategies }}
)

// storeView is one planner's window onto an optional CurveStore, and
// the one place characterization decides between reusing and fitting
// (fetch). It counts and traces store.hit/store.miss per record kind, so
// planner.probes keeps working as the cache-regression signal and a
// trace shows exactly which characterizations were reused.
//
// The view is used by one goroutine at a time (memo, hits and misses are
// not locked); only the underlying CurveStore is shared between builds.
//
// The view snapshots the store's build epoch at creation. Puts carry
// the snapshot and the store drops those from a stale epoch — a build
// racing an Invalidate keeps its own (pre-invalidation) fitted values
// but never writes them back. Dropped writes are counted under
// store.stale_drop.
type storeView struct {
	st           *CurveStore // nil: the plain NewPlanner path
	c            *obs.Collector
	epoch        uint64
	hits, misses int
	memo         map[memoKey]any
}

// memoKey identifies one memoized record: kinds sharing a key (a tier's
// curve and its γ fit) stay apart.
type memoKey struct{ kind, key string }

// newStoreView opens one build's window onto st (nil-tolerant),
// snapshotting the current build epoch.
func newStoreView(st *CurveStore, c *obs.Collector) *storeView {
	v := &storeView{st: st, c: c, memo: map[memoKey]any{}}
	if st != nil {
		st.mu.RLock()
		v.epoch = st.epoch
		st.mu.RUnlock()
	}
	return v
}

// fetch returns the record of the given kind and key, fitting it only
// when nothing cheaper has it: the view's memo (silent), then the store
// (one store.hit/store.miss event under sp, and counter), then fit —
// whose result is memoized and written back, the write dropped and
// counted under store.stale_drop when the view's epoch is stale. A fit
// error is returned with nothing memoized or stored. Without a store the
// middle step vanishes and nothing is traced.
func fetch[V any](v *storeView, sp *obs.Span, kind recordKind[V], key string, fit func() (V, error)) (V, error) {
	mk := memoKey{kind.name, key}
	if rec, ok := v.memo[mk]; ok {
		return rec.(V), nil
	}
	var (
		tab *table[V]
		rec V
		hit bool
	)
	if v.st != nil {
		tab = kind.table(v.st)
		rec, hit = tab.get(key)
		v.record(sp, hit, kind.name)
	}
	if !hit {
		var err error
		if rec, err = fit(); err != nil {
			return rec, err
		}
		if tab != nil && !tab.put(v.epoch, key, rec) {
			v.c.Add(CtrStoreStale, 1)
		}
	}
	if kind.memo {
		v.memo[mk] = rec
	}
	return rec, nil
}

// record tallies one store lookup and emits its store.hit/store.miss
// event and counter.
func (v *storeView) record(sp *obs.Span, hit bool, kind string) {
	name := CtrStoreMiss
	if hit {
		v.hits++
		name = CtrStoreHit
	} else {
		v.misses++
	}
	sp.Event(name, obs.Str("kind", kind))
	v.c.Add(name, 1)
}

// noteRefit emits the store.refit event and counter when the finished
// build mixed hits and misses — an incremental re-fit that re-probed
// only what the store lacked (e.g. one invalidated tier) and reused
// every other cached curve.
func (v *storeView) noteRefit(sp *obs.Span) {
	if v.hits == 0 || v.misses == 0 {
		return
	}
	sp.Event(CtrStoreRefit, obs.Int("hits", v.hits), obs.Int("misses", v.misses))
	v.c.Add(CtrStoreRefit, 1)
}
