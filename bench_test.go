// Package repro's top-level benchmarks regenerate every figure of the
// paper's evaluation plus the signature table and the ablations, as
// listed in README.md. Each benchmark runs its experiment at a CI-friendly
// scale (override with -bench-scale) and reports the headline quantities
// as custom metrics, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. Full paper-scale grids: cmd/atabench -full.
package main

import (
	"flag"
	"os"
	"testing"

	"repro/internal/exp"
)

var (
	benchScale = flag.Float64("bench-scale", 0.125, "experiment scale factor for benchmarks")
	benchSeed  = flag.Int64("bench-seed", 1, "simulation seed for benchmarks")
)

// benchConfig builds the experiment configuration for benchmarks.
func benchConfig() exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Scale = *benchScale
	cfg.Seed = *benchSeed
	cfg.Reps = 1
	return cfg
}

// runExperiment executes the experiment once per benchmark iteration and
// reports selected columns of its first series as metrics.
func runExperiment(b *testing.B, id string, metrics map[string]func(exp.Result) float64) {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var last exp.Result
	for i := 0; i < b.N; i++ {
		last = e.Run(benchConfig())
	}
	for name, f := range metrics {
		b.ReportMetric(f(last), name)
	}
	if testing.Verbose() {
		exp.WriteText(os.Stdout, last)
	}
}

// lastColMean averages column col of the first series.
func lastColMean(col int) func(exp.Result) float64 {
	return func(r exp.Result) float64 {
		if len(r.Series) == 0 || len(r.Series[0].Rows) == 0 {
			return 0
		}
		var s float64
		for _, row := range r.Series[0].Rows {
			s += row[col]
		}
		return s / float64(len(r.Series[0].Rows))
	}
}

// seriesCell fetches one cell of the first series.
func seriesCell(row, col int) func(exp.Result) float64 {
	return func(r exp.Result) float64 {
		if len(r.Series) == 0 || row >= len(r.Series[0].Rows) {
			return 0
		}
		return r.Series[0].Rows[row][col]
	}
}

func BenchmarkFig02SaturationBandwidth(b *testing.B) {
	runExperiment(b, "F02", map[string]func(exp.Result) float64{
		"first_MBps": seriesCell(0, 1),
		"last_MBps":  func(r exp.Result) float64 { s := r.Series[0]; return s.Rows[len(s.Rows)-1][1] },
	})
}

func BenchmarkFig03SaturationTimes(b *testing.B) {
	runExperiment(b, "F03", map[string]func(exp.Result) float64{
		"max_straggler_x": func(r exp.Result) float64 {
			// summary series: max of max_over_mean column.
			for _, s := range r.Series {
				if s.Name != "summary" {
					continue
				}
				var worst float64
				for _, row := range s.Rows {
					if row[4] > worst {
						worst = row[4]
					}
				}
				return worst
			}
			return 0
		},
	})
}

func BenchmarkFig04TwoBeta(b *testing.B) {
	runExperiment(b, "F04", map[string]func(exp.Result) float64{
		"mean_measured_s": lastColMean(1),
		"mean_twobeta_s":  lastColMean(2),
	})
}

func BenchmarkFig05SmallMsgSurface(b *testing.B) {
	runExperiment(b, "F05", map[string]func(exp.Result) float64{
		"mean_ratio": lastColMean(4),
	})
}

func fitMetrics() map[string]func(exp.Result) float64 {
	return map[string]func(exp.Result) float64{
		"mean_ratio_vs_lb": lastColMean(4),
	}
}

func BenchmarkFig06FastEthernetFit(b *testing.B) { runExperiment(b, "F06", fitMetrics()) }
func BenchmarkFig09GigEFit(b *testing.B)         { runExperiment(b, "F09", fitMetrics()) }
func BenchmarkFig12MyrinetFit(b *testing.B)      { runExperiment(b, "F12", fitMetrics()) }

func surfaceMetrics() map[string]func(exp.Result) float64 {
	return map[string]func(exp.Result) float64{
		"mean_abs_err_pct": func(r exp.Result) float64 {
			if len(r.Series) == 0 {
				return 0
			}
			var s float64
			var n int
			for _, row := range r.Series[0].Rows {
				e := row[4]
				if e < 0 {
					e = -e
				}
				s += e
				n++
			}
			if n == 0 {
				return 0
			}
			return s / float64(n)
		},
	}
}

func BenchmarkFig07FastEthernetSurface(b *testing.B) { runExperiment(b, "F07", surfaceMetrics()) }
func BenchmarkFig10GigESurface(b *testing.B)         { runExperiment(b, "F10", surfaceMetrics()) }
func BenchmarkFig13MyrinetSurface(b *testing.B)      { runExperiment(b, "F13", surfaceMetrics()) }

func BenchmarkFig08FastEthernetError(b *testing.B) { runExperiment(b, "F08", surfaceMetrics()) }
func BenchmarkFig11GigEError(b *testing.B)         { runExperiment(b, "F11", surfaceMetrics()) }
func BenchmarkFig14MyrinetError(b *testing.B)      { runExperiment(b, "F14", surfaceMetrics()) }

func BenchmarkTableASignatures(b *testing.B) {
	runExperiment(b, "TA", map[string]func(exp.Result) float64{
		"fe_gamma":   seriesCell(0, 4),
		"gige_gamma": seriesCell(1, 4),
		"myri_gamma": seriesCell(2, 4),
	})
}

func BenchmarkAblationAlgorithms(b *testing.B) {
	runExperiment(b, "AB1", map[string]func(exp.Result) float64{
		"mean_ratio_vs_lb": lastColMean(3),
	})
}

func BenchmarkAblationBufferSize(b *testing.B) {
	runExperiment(b, "AB2", map[string]func(exp.Result) float64{
		"gamma_spread": func(r exp.Result) float64 {
			if len(r.Series) == 0 || len(r.Series[0].Rows) == 0 {
				return 0
			}
			lo, hi := r.Series[0].Rows[0][1], r.Series[0].Rows[0][1]
			for _, row := range r.Series[0].Rows {
				if row[1] < lo {
					lo = row[1]
				}
				if row[1] > hi {
					hi = row[1]
				}
			}
			return hi - lo
		},
	})
}

func BenchmarkExtInfiniBandSignature(b *testing.B) {
	runExperiment(b, "EX1", map[string]func(exp.Result) float64{
		"mean_ratio_vs_lb": lastColMean(4),
	})
}

func BenchmarkExtHalfSaturatedModel(b *testing.B) {
	runExperiment(b, "EX2", map[string]func(exp.Result) float64{
		"mean_abs_halfsat_err_pct": func(r exp.Result) float64 {
			if len(r.Series) == 0 {
				return 0
			}
			var s float64
			var n int
			for _, row := range r.Series[0].Rows {
				e := row[4]
				if e < 0 {
					e = -e
				}
				s += e
				n++
			}
			if n == 0 {
				return 0
			}
			return s / float64(n)
		},
	})
}

func BenchmarkExtOtherCollectives(b *testing.B) {
	runExperiment(b, "EX3", map[string]func(exp.Result) float64{
		"alltoall_gamma":  seriesCell(0, 1),
		"allgather_gamma": seriesCell(1, 1),
	})
}

func BenchmarkAblationEagerThreshold(b *testing.B) {
	runExperiment(b, "AB3", map[string]func(exp.Result) float64{
		"mean_time_s": lastColMean(2),
	})
}
