package grid

import (
	"sync"
	"sync/atomic"
)

// Probe worker pool. Every probe simulation builds its own topology and
// Simulator from an explicit seed, so independent probes share no
// mutable state and can run concurrently; the only shared sink is the
// obs.Collector's counters, which are thread-safe and order-
// independent. Everything order-sensitive — trace events, ProbeStats,
// fitted points, error propagation — is folded by the calling goroutine
// after the batch completes, in the exact order the sequential code
// produced, which is how parallel characterization stays bit-identical
// to sequential (the property the service tests pin).

// parallelDo runs fn(0..n-1) across at most workers goroutines. With
// workers ≤ 1 (or a single job) it runs inline on the caller — truly
// sequential, no goroutine spawned — so Options.Workers = 1 reproduces
// the pre-pool execution exactly.
func parallelDo(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := int64(-1)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// probeRun is one contention-factor probe scheduled on the pool. run
// must be safe to invoke concurrently with other probes' runs (each
// invocation builds its own simulation). After runProbes, either err is
// set or times holds the per-seed samples in probeSeeds order and median
// their median; given the same baseSeed and run behavior both are
// identical in any process and for any worker count.
type probeRun struct {
	baseSeed int64
	run      func(seed int64) (float64, error)

	times  []float64
	median float64
	err    error
}

// runProbes executes a batch of probes over the stop-when-stable seed
// schedule and keeps each probe's median run. Completion times on lossy
// WANs are heavy-tailed upward — a single retransmission timeout adds
// whole RTO periods — so a mean bakes one seed's tail draw into every
// prediction, while a minimum discards the systematic loss recovery the
// factors exist to price (an incast's "lucky" run dodges the very losses
// κ summarizes). The median is robust against both.
//
// Sampling is adaptive on the per-seed dispersion signal, in two phases
// that each fan every (probe, seed) simulation across the worker pool:
// the first probeSeedsInitial seeds of every probe always run; the
// dispersion gate is then evaluated sequentially, and a probe whose
// spread (max−min) exceeds stableSpread × median — the same
// overlap-prone dispersion probe.unstable warns about — runs the
// remaining probeSeeds too (bounded at five), widening its median to all
// samples. Stable probes pay three simulations, seed-lottery ones five.
// A probe reports its first error in seed order, with no samples.
func runProbes(workers int, stableSpread float64, probes []*probeRun) {
	type job struct{ p, s int }
	res := make([][]float64, len(probes))
	errs := make([][]error, len(probes))
	jobs := make([]job, 0, len(probes)*probeSeedsInitial)
	for pi, p := range probes {
		n := len(probeSeeds(p.baseSeed))
		res[pi] = make([]float64, n)
		errs[pi] = make([]error, n)
		for s := 0; s < probeSeedsInitial; s++ {
			jobs = append(jobs, job{pi, s})
		}
	}
	runJob := func(j job) {
		p := probes[j.p]
		res[j.p][j.s], errs[j.p][j.s] = p.run(probeSeeds(p.baseSeed)[j.s])
	}
	parallelDo(workers, len(jobs), func(i int) { runJob(jobs[i]) })

	// Fold initial seeds and evaluate the dispersion gate per probe.
	var ext []job
	for pi, p := range probes {
		for s := 0; s < probeSeedsInitial; s++ {
			if errs[pi][s] != nil {
				p.err = errs[pi][s]
				break
			}
		}
		if p.err != nil {
			continue
		}
		p.times = append(p.times, res[pi][:probeSeedsInitial]...)
		if lo, med, hi := dispersion(p.times); med > 0 && hi-lo > stableSpread*med {
			for s := probeSeedsInitial; s < len(probeSeeds(p.baseSeed)); s++ {
				ext = append(ext, job{pi, s})
			}
		}
	}
	parallelDo(workers, len(ext), func(i int) { runJob(ext[i]) })
	for _, j := range ext {
		p := probes[j.p]
		if p.err != nil {
			continue
		}
		if e := errs[j.p][j.s]; e != nil {
			p.err = e
			p.times = nil
			continue
		}
		p.times = append(p.times, res[j.p][j.s])
	}

	for _, p := range probes {
		if p.err != nil {
			continue
		}
		_, p.median, _ = dispersion(p.times)
	}
}
