package grid

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// fetchOf binds one fetch call — kind, key and the value its fit
// returns — for TestFetch's rows; the harness supplies the view, the
// span, the fit-call counter and the fit's error.
func fetchOf[V any](kind recordKind[V], key string, fitted V) func(*storeView, *obs.Span, *int, error) (any, error) {
	return func(v *storeView, sp *obs.Span, calls *int, fitErr error) (any, error) {
		rec, err := fetch(v, sp, kind, key, func() (V, error) {
			*calls++
			return fitted, fitErr
		})
		return rec, err
	}
}

// TestFetch pins the one get-or-fit path every characterization stage
// goes through: memo, then store (counted under the kind's own name),
// then fit with memoization and an epoch-guarded write-back. The
// stale-epoch rows are the regression test for the Invalidate race: a
// view that snapshotted its epoch before an Invalidate keeps its fitted
// value but must not write it back.
func TestFetch(t *testing.T) {
	stored, fitted := model.ScalarFactor(2), model.ScalarFactor(3)
	both := func(c model.FactorCurve) storedStrategy { return storedStrategy{Omega: c, Kappa: c} }
	tier := storedTier{Curve: []model.WANPoint{{Bytes: 1 << 10, T: 0.01}, {Bytes: 64 << 10, T: 0.1}}}
	boom := errors.New("boom")
	hit := func(kind string) []obs.Attr { return []obs.Attr{obs.Str("event", CtrStoreHit), obs.Str("kind", kind)} }
	miss := func(kind string) []obs.Attr { return []obs.Attr{obs.Str("event", CtrStoreMiss), obs.Str("kind", kind)} }

	cases := []struct {
		name    string
		noStore bool
		// seed prepares the store and the view before the fetch under test.
		seed   func(t *testing.T, st *CurveStore, v *storeView)
		do     func(*storeView, *obs.Span, *int, error) (any, error)
		fitErr error
		// Expected outcome of the fetch under test.
		want      any
		fitCalls  int
		events    [][]obs.Attr // name + kind of each emitted event, in order
		staleDrop uint64
		// after checks what the fetch left behind.
		after func(t *testing.T, st *CurveStore, v *storeView)
	}{
		{
			name: "memo-hit", // silent, and does not touch the store
			seed: func(t *testing.T, st *CurveStore, v *storeView) {
				calls := 0
				if _, err := fetchOf(recGamma, "G{t}", fitted)(v, nil, &calls, nil); err != nil || calls != 1 {
					t.Fatalf("seeding fetch: err %v, %d fit calls", err, calls)
				}
				// Gone from the store (which makes the view stale too): only
				// the memo can still serve the key, and nothing may re-store it.
				if n := st.Invalidate("G{t}"); n != 1 {
					t.Fatalf("Invalidate dropped %d records, want 1", n)
				}
			},
			do:   fetchOf(recGamma, "G{t}", stored),
			want: fitted,
			after: func(t *testing.T, st *CurveStore, v *storeView) {
				if st.Len() != 0 {
					t.Fatal("memo hit wrote to the store")
				}
			},
		},
		{
			name:   "store-hit-gamma",
			seed:   func(t *testing.T, st *CurveStore, v *storeView) { st.gammas.put(0, "G{t}", stored) },
			do:     fetchOf(recGamma, "G{t}", fitted),
			want:   stored,
			events: [][]obs.Attr{hit("gamma")},
		},
		{
			name:   "store-hit-kind", // shares the gammas table but not the name
			seed:   func(t *testing.T, st *CurveStore, v *storeView) { st.gammas.put(0, "K|reduce|G{t}", stored) },
			do:     fetchOf(recKind, "K|reduce|G{t}", fitted),
			want:   stored,
			events: [][]obs.Attr{hit("kind")},
		},
		{
			name:   "store-hit-strategy",
			seed:   func(t *testing.T, st *CurveStore, v *storeView) { st.strategies.put(0, "S|G{t}", both(stored)) },
			do:     fetchOf(recStrategy, "S|G{t}", both(fitted)),
			want:   both(stored),
			events: [][]obs.Attr{hit("strategy")},
		},
		{
			name:   "store-hit-refit", // shares the strategies table but not the name
			seed:   func(t *testing.T, st *CurveStore, v *storeView) { st.strategies.put(0, "R|G{t}|d;1", both(stored)) },
			do:     fetchOf(recRefit, "R|G{t}|d;1", both(fitted)),
			want:   both(stored),
			events: [][]obs.Attr{hit("refit")},
		},
		{
			name:     "miss", // fits once, stores and memoizes
			do:       fetchOf(recTier, "G{t}", tier),
			want:     tier,
			fitCalls: 1,
			events:   [][]obs.Attr{miss("tier")},
			after: func(t *testing.T, st *CurveStore, v *storeView) {
				if got, ok := st.tiers.get("G{t}"); !ok || !reflect.DeepEqual(got, tier) {
					t.Fatalf("fit was not written back: ok=%v rec=%+v", ok, got)
				}
				calls := 0
				if _, err := fetchOf(recTier, "G{t}", tier)(v, nil, &calls, nil); err != nil || calls != 0 {
					t.Fatalf("second fetch: err %v, %d fit calls, want the memo to serve it", err, calls)
				}
			},
		},
		{
			name:     "fit-error", // nothing memoized or stored
			do:       fetchOf(recGamma, "G{t}", model.FactorCurve{}),
			fitErr:   boom,
			want:     model.FactorCurve{},
			fitCalls: 1,
			events:   [][]obs.Attr{miss("gamma")},
			after: func(t *testing.T, st *CurveStore, v *storeView) {
				if st.Len() != 0 {
					t.Fatal("failed fit stored a record")
				}
				calls := 0
				if got, err := fetchOf(recGamma, "G{t}", fitted)(v, nil, &calls, nil); err != nil || calls != 1 || !reflect.DeepEqual(got, fitted) {
					t.Fatalf("fetch after a failed fit: %+v, err %v, %d fit calls; want a fresh fit", got, err, calls)
				}
			},
		},
		{
			name: "stale-epoch", // keeps the fit, drops the write-back
			seed: func(t *testing.T, st *CurveStore, v *storeView) {
				// Zero records match, but the epoch still advances past the view's.
				if n := st.Invalidate("G{elsewhere}"); n != 0 {
					t.Fatalf("Invalidate dropped %d records, want 0", n)
				}
			},
			do:        fetchOf(recGamma, "G{t}", fitted),
			want:      fitted,
			fitCalls:  1,
			events:    [][]obs.Attr{miss("gamma")},
			staleDrop: 1,
			after: func(t *testing.T, st *CurveStore, v *storeView) {
				if _, ok := st.gammas.get("G{t}"); ok {
					t.Fatal("stale build re-inserted a record")
				}
				// A view opened after the invalidation writes through again.
				calls := 0
				if _, err := fetchOf(recGamma, "G{t}", fitted)(newStoreView(st, v.c), nil, &calls, nil); err != nil {
					t.Fatal(err)
				}
				if _, ok := st.gammas.get("G{t}"); !ok {
					t.Fatal("post-invalidation build could not write")
				}
			},
		},
		{
			name:     "nil-store", // fits, memoizes and emits nothing
			noStore:  true,
			do:       fetchOf(recHeadroom, "p|3", []float64{1e8, 1e8, 1e7}),
			want:     []float64{1e8, 1e8, 1e7},
			fitCalls: 1,
			after: func(t *testing.T, st *CurveStore, v *storeView) {
				calls := 0
				if _, err := fetchOf(recHeadroom, "p|3", []float64(nil))(v, nil, &calls, nil); err != nil || calls != 0 {
					t.Fatalf("second fetch: err %v, %d fit calls, want the memo to serve it", err, calls)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := obs.New()
			var st *CurveStore
			if !tc.noStore {
				st = NewCurveStore()
			}
			v := newStoreView(st, c)
			if tc.seed != nil {
				tc.seed(t, st, v)
			}
			c.Reset()
			sp := c.Span("fetch-under-test")
			calls := 0
			got, err := tc.do(v, sp, &calls, tc.fitErr)
			if !errors.Is(err, tc.fitErr) {
				t.Fatalf("err = %v, want %v", err, tc.fitErr)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("fetched %+v, want %+v", got, tc.want)
			}
			if calls != tc.fitCalls {
				t.Fatalf("fit ran %d times, want %d", calls, tc.fitCalls)
			}
			var events [][]obs.Attr
			for _, ev := range c.Events() {
				if ev.Type == "event" {
					events = append(events, append([]obs.Attr{obs.Str("event", ev.Name)}, ev.Attrs...))
				}
			}
			if !reflect.DeepEqual(events, tc.events) {
				t.Fatalf("events = %v, want %v", events, tc.events)
			}
			// Counters move with the events, one for one.
			var wantHit, wantMiss uint64
			for _, ev := range tc.events {
				if ev[0] == obs.Str("event", CtrStoreHit) {
					wantHit++
				} else {
					wantMiss++
				}
			}
			if h, m := counterValue(c, CtrStoreHit), counterValue(c, CtrStoreMiss); h != wantHit || m != wantMiss {
				t.Fatalf("%s/%s = %d/%d, want %d/%d", CtrStoreHit, CtrStoreMiss, h, m, wantHit, wantMiss)
			}
			if got := counterValue(c, CtrStoreStale); got != tc.staleDrop {
				t.Fatalf("%s = %d, want %d", CtrStoreStale, got, tc.staleDrop)
			}
			if tc.after != nil {
				tc.after(t, st, v)
			}
		})
	}
}

// TestStoreRecordsDoNotAliasPlanners: a planner's exported fields are
// the caller's to scribble on, so neither a planner that filled the
// store nor one served from it may share backing arrays with the stored
// records — the next planner, and the next SaveStore, must see the
// fitted values.
func TestStoreRecordsDoNotAliasPlanners(t *testing.T) {
	topo, opt := testTopo(), cheapOptions()
	st := NewCurveStore()
	scribble := func(pl *Planner) {
		for _, rates := range pl.Headroom {
			for i := range rates {
				rates[i] = -1
			}
		}
		pl.Model.Root.Wan.Curve[0].T = -1
		pl.Model.Root.Wan.Gamma.Points[0].Factor = -1
		pl.Model.OverlapGamma.Points[0].Factor = -1
	}
	filler, err := newPlannerWithStore(topo, opt, st)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(filler.Headroom, filler.Predict(32<<10))
	var before bytes.Buffer
	if err := st.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	scribble(filler)
	served, err := newPlannerWithStore(topo, opt, st)
	if err != nil {
		t.Fatal(err)
	}
	scribble(served)

	next, err := newPlannerWithStore(topo, opt, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(next.Headroom, next.Predict(32<<10)); got != want {
		t.Fatalf("mutating earlier planners changed the next one:\n got %s\nwant %s", got, want)
	}
	var after bytes.Buffer
	if err := st.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatalf("mutating planners changed the serialized store:\n got %s\nwant %s", after.Bytes(), before.Bytes())
	}
}

// TestServiceInvalidateDuringBuildDropsWrites drives the race through
// the public API: Invalidate fires while a characterization is in
// flight, the build must complete (its caller keeps a usable planner)
// but none of its fits may land in the store.
func TestServiceInvalidateDuringBuildDropsWrites(t *testing.T) {
	opt := cheapOptions()
	opt.Trace = obs.New()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	topo := testTopo()
	tier := TierKey(topo.Children[0])

	// Bump the epoch after the build's view snapshot but before its
	// write-backs: simulate by snapshotting a view now, invalidating,
	// then building. The service path is exercised end-to-end below via
	// a mid-build invalidation from a second goroutine.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Races the build; whichever way the interleaving falls, the
		// invariants below must hold.
		svc.Invalidate(tier)
	}()
	pl, err := svc.PlannerFor(topo)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pl.Predict(64 << 10)); got != len(Strategies) {
		t.Fatalf("racing build returned unusable planner: %d predictions", got)
	}

	// Deterministic leg: a view from before an invalidation never
	// writes. Populate from a build that post-dates every invalidation
	// (the racing one above may have dropped all of the first build's
	// writes), count its store records, invalidate the tier, and require
	// the records the substring rule covers to be gone and stay gone
	// until a non-stale build refits them.
	svc.Invalidate(tier)
	if _, err := svc.PlannerFor(topo); err != nil {
		t.Fatal(err)
	}
	before := svc.Store().Len()
	if before == 0 {
		t.Fatal("build left no store records")
	}
	dropped := svc.Invalidate(tier)
	if dropped == 0 {
		t.Fatal("Invalidate matched no records")
	}
	if got := svc.Store().Len(); got != before-dropped {
		t.Fatalf("store has %d records after dropping %d of %d", got, dropped, before)
	}
	// Rebuild: re-fits only the dropped records, writes them back.
	if _, err := svc.PlannerFor(topo); err != nil {
		t.Fatal(err)
	}
	if got := svc.Store().Len(); got != before {
		t.Fatalf("incremental refit restored %d of %d records", got, before)
	}
}

// TestServiceEvictsLRU is the regression test for the unbounded planner
// cache: past Options.CacheCap the service must evict the
// least-recently-used entry, count it under service.evict, and rebuild
// a re-requested evicted topology warm from the store (zero probes).
func TestServiceEvictsLRU(t *testing.T) {
	opt := cheapOptions()
	opt.CacheCap = 2
	opt.Trace = obs.New()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	topoA := testTopo()
	topoB := cluster.Uniform("b", wanTunedGE(), 2, 2, cluster.DefaultWAN(25*sim.Millisecond)).Tree()
	topoC := cluster.Uniform("c", wanTunedGE(), 3, 2, cluster.DefaultWAN(35*sim.Millisecond)).Tree()

	plA, err := svc.PlannerFor(topoA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PlannerFor(topoB); err != nil {
		t.Fatal(err)
	}
	// Touch A so B is the LRU victim when C arrives.
	if _, err := svc.PlannerFor(topoA); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PlannerFor(topoC); err != nil {
		t.Fatal(err)
	}
	if got := svc.Len(); got != 2 {
		t.Fatalf("cache holds %d planners, want CacheCap=2", got)
	}
	if got := counterValue(opt.Trace, CtrServiceEvict); got != 1 {
		t.Fatalf("%s = %d, want 1", CtrServiceEvict, got)
	}
	// A stayed cached: same pointer, no rebuild.
	plA2, err := svc.PlannerFor(topoA)
	if err != nil {
		t.Fatal(err)
	}
	if plA2 != plA {
		t.Fatal("recently-used entry was evicted")
	}
	// B was evicted: rebuilding gives a new planner, but warm — the
	// store kept its fits, so the rebuild runs zero probe simulations.
	probesBefore := counterValue(opt.Trace, CtrProbes)
	if _, err := svc.PlannerFor(topoB); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(opt.Trace, CtrProbes); got != probesBefore {
		t.Fatalf("evicted topology rebuild ran %d probes, want 0", got-probesBefore)
	}
	// Rebuilding B evicted the then-LRU entry (C, never re-touched).
	if got := counterValue(opt.Trace, CtrServiceEvict); got != 2 {
		t.Fatalf("%s = %d after rebuild, want 2", CtrServiceEvict, got)
	}
}

// TestStoreSaveFileAtomic is the regression test for crash-safe store
// persistence: SaveFile round-trips bit-identically, leaves no temp
// residue, and LoadCurveStoreFile rejects truncated and torn files
// instead of serving partial fits.
func TestStoreSaveFileAtomic(t *testing.T) {
	opt := cheapOptions()
	svc, err := NewService(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PlannerFor(testTopo()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	if err := svc.Store().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "store.json" {
			t.Fatalf("SaveFile left residue: %s", e.Name())
		}
	}

	// Round trip: loaded store serves a warm, bit-identical build.
	loaded, err := LoadCurveStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wopt := opt
	wopt.Trace = obs.New()
	warm, err := NewServiceWithStore(wopt, loaded)
	if err != nil {
		t.Fatal(err)
	}
	wpl, err := warm.PlannerFor(testTopo())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := svc.PlannerFor(testTopo())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{64 << 10, 256 << 10} {
		wp, cp := wpl.Predict(m), cold.Predict(m)
		for i := range cp {
			if wp[i] != cp[i] {
				t.Fatalf("m=%d: loaded-store prediction %d = %+v, original = %+v", m, i, wp[i], cp[i])
			}
		}
	}
	if probes := counterValue(wopt.Trace, CtrProbes); probes != 0 {
		t.Fatalf("loaded store still ran %d probes", probes)
	}

	// Truncated file (a torn write without the rename guard): rejected.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCurveStoreFile(torn); err == nil {
		t.Fatal("truncated store file loaded without error")
	} else if !strings.Contains(err.Error(), "truncated or torn") {
		t.Fatalf("truncated store error does not explain itself: %v", err)
	}

	// Trailing data after the document (a concatenated write): rejected.
	doubled := filepath.Join(dir, "doubled.json")
	if err := os.WriteFile(doubled, append(append([]byte{}, raw...), raw...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCurveStoreFile(doubled); err == nil {
		t.Fatal("store file with trailing data loaded without error")
	}

	// Missing file: os.IsNotExist survives for caller handling.
	if _, err := LoadCurveStoreFile(filepath.Join(dir, "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("missing store file error = %v, want os.IsNotExist", err)
	}
}
