package grid

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/coll"
)

// TestProbeSeedsSchedule pins the probe seed schedule: fixed prime
// offsets from the base, identical on every invocation — the property
// that makes per-seed samples reproducible across processes.
func TestProbeSeedsSchedule(t *testing.T) {
	want := []int64{7, 7 + 97, 7 + 193, 7 + 389, 7 + 577}
	if got := probeSeeds(7); !reflect.DeepEqual(got, want) {
		t.Fatalf("probeSeeds(7) = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(probeSeeds(7), probeSeeds(7)) {
		t.Fatal("probeSeeds is not deterministic")
	}
	if probeSeedsInitial >= len(probeSeeds(0)) {
		t.Fatalf("probeSeedsInitial %d leaves no extra seeds to extend into", probeSeedsInitial)
	}
}

// runOne schedules a single probe on the pool — the smallest batch —
// and returns what a fit would read from it.
func runOne(workers int, baseSeed int64, run func(seed int64) (float64, error)) (float64, []float64, error) {
	pr := &probeRun{baseSeed: baseSeed, run: run}
	runProbes(workers, 0.5, []*probeRun{pr})
	return pr.median, pr.times, pr.err
}

// forWorkers runs a schedule test sequentially and on a 4-worker pool:
// the stop-when-stable rule must not depend on how seeds are fanned out.
func forWorkers(t *testing.T, fn func(t *testing.T, workers int)) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { fn(t, workers) })
	}
}

// TestRunProbesStopsWhenStable pins the stable path of the
// stop-when-stable rule: when the first three seeds agree within the
// spread threshold, the probe stops at three samples and returns their
// median.
func TestRunProbesStopsWhenStable(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		vals := map[int64]float64{100: 1.00, 197: 1.10, 293: 1.05}
		var calls atomic.Int64
		med, times, err := runOne(workers, 100, func(sd int64) (float64, error) {
			calls.Add(1)
			v, ok := vals[sd]
			if !ok {
				t.Errorf("probe ran unscheduled seed %d", sd)
			}
			return v, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 3 {
			t.Fatalf("stable probe ran %d seeds, want 3", calls.Load())
		}
		if len(times) != 3 {
			t.Fatalf("stable probe returned %d samples, want 3", len(times))
		}
		if med != 1.05 {
			t.Fatalf("median = %v, want 1.05 (median of three)", med)
		}
	})
}

// TestRunProbesExtendsWhenUnstable pins the unstable path: when the
// first three seeds disperse past StableSpread × median, the probe runs
// the two extra seeds (bounded at five) and the median widens to all
// five samples.
func TestRunProbesExtendsWhenUnstable(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		// Spread 9.0 − 1.0 = 8.0 > 0.5 × 2.0: the FE 64 KiB seed lottery.
		vals := map[int64]float64{100: 1.0, 197: 9.0, 293: 2.0, 489: 2.2, 677: 2.4}
		var calls atomic.Int64
		med, times, err := runOne(workers, 100, func(sd int64) (float64, error) {
			calls.Add(1)
			return vals[sd], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 5 {
			t.Fatalf("unstable probe ran %d seeds, want 5", calls.Load())
		}
		if len(times) != 5 {
			t.Fatalf("unstable probe returned %d samples, want 5", len(times))
		}
		if med != 2.2 {
			t.Fatalf("median = %v, want 2.2 (median of five)", med)
		}
		// Samples come back in probeSeeds order for dispersion diagnostics.
		want := []float64{1.0, 9.0, 2.0, 2.2, 2.4}
		if !reflect.DeepEqual(times, want) {
			t.Fatalf("samples = %v, want seed order %v", times, want)
		}
	})
}

// TestRunProbesDeterminism covers the determinism satellite: two
// independent invocations with the same base seed produce identical
// per-seed samples and an identical median — both on a synthetic
// closure and on real probe simulations, which rebuild their world from
// the seed alone and so behave like separate processes.
func TestRunProbesDeterminism(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		synthetic := func() (float64, []float64) {
			med, times, err := runOne(workers, 31, func(sd int64) (float64, error) {
				return float64(sd%7) * 0.125, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			return med, times
		}
		m1, t1 := synthetic()
		m2, t2 := synthetic()
		if m1 != m2 || !reflect.DeepEqual(t1, t2) {
			t.Fatalf("synthetic probe not deterministic: %v/%v vs %v/%v", m1, t1, m2, t2)
		}

		topo := cappedTree(testTopo(), 2)
		simulated := func() (float64, []float64) {
			med, times, err := runOne(workers, 53, func(sd int64) (float64, error) {
				return Options{Reps: 1}.probe(topo, coll.Uniform(coll.KindAlltoall, 16<<10), FlatDirect, nil, sd)
			})
			if err != nil {
				t.Fatal(err)
			}
			return med, times
		}
		s1, st1 := simulated()
		s2, st2 := simulated()
		if s1 != s2 || !reflect.DeepEqual(st1, st2) {
			t.Fatalf("simulated probe not deterministic: %v/%v vs %v/%v", s1, st1, s2, st2)
		}
		if s1 <= 0 {
			t.Fatalf("nonpositive probe median %v", s1)
		}
	})
}

// TestRunProbesPropagatesErrors: a failing run fails the probe with its
// first error in seed order and no samples, whichever seed's simulation
// happened to finish first.
func TestRunProbesPropagatesErrors(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		_, times, err := runOne(workers, 1, func(sd int64) (float64, error) {
			return 0, fmt.Errorf("boom at seed %d", sd)
		})
		if err == nil || err.Error() != "boom at seed 1" {
			t.Fatalf("err = %v, want the first seed's error", err)
		}
		if times != nil {
			t.Fatalf("failed probe kept samples %v", times)
		}
		// An error in the extension phase drops the initial samples too.
		vals := map[int64]float64{100: 1.0, 197: 9.0, 293: 2.0}
		boom := errors.New("boom")
		_, times, err = runOne(workers, 100, func(sd int64) (float64, error) {
			if v, ok := vals[sd]; ok {
				return v, nil
			}
			return 0, boom
		})
		if !errors.Is(err, boom) || times != nil {
			t.Fatalf("extension error: err = %v, samples = %v; want %v and none", err, times, boom)
		}
	})
}

// TestOptionsRejectBadStableSpread covers Options.validate on the new
// stop-when-stable threshold.
func TestOptionsRejectBadStableSpread(t *testing.T) {
	for _, v := range []float64{-0.5, math.NaN(), math.Inf(1)} {
		opt := cheapOptions()
		opt.StableSpread = v
		if _, err := NewPlanner(testTopo(), opt); err == nil {
			t.Fatalf("StableSpread %v accepted", v)
		}
	}
	// Zero takes the default and must pass.
	opt := cheapOptions()
	opt.StableSpread = 0
	if got := opt.withDefaults().StableSpread; got != 0.5 {
		t.Fatalf("default StableSpread = %v, want 0.5", got)
	}
}
