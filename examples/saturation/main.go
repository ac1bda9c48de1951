// saturation reproduces the Section 3 experiment interactively (Figs. 2
// and 3): it floods a Gigabit Ethernet cluster with growing numbers of
// simultaneous connections and renders the bandwidth collapse and the
// straggler tail as terminal plots.
package main

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/textplot"
)

func main() {
	p := cluster.GigabitEthernet()
	const nodes = 16
	const size = 8 << 20 // scaled-down from the paper's 32 MB

	var xs, avgBW []float64
	var sxs, stimes []float64
	for _, conns := range []int{1, 2, 4, 8, 16, 24, 32, 40} {
		pr := calib.SaturationProbe(p, nodes, conns, size, int64(conns))
		xs = append(xs, float64(conns))
		avgBW = append(avgBW, pr.AvgBandwidth()/1e6)
		for _, t := range pr.Times {
			sxs = append(sxs, float64(conns))
			stimes = append(stimes, t)
		}
		fmt.Printf("conns=%2d  avg bandwidth %6.1f MB/s  mean %.3fs  max %.3fs\n",
			conns, pr.AvgBandwidth()/1e6, pr.MeanTime(), pr.MaxTime())
	}

	fmt.Println()
	fmt.Println(textplot.Plot("Fig. 2 analogue: average bandwidth (MB/s) vs connections", 60, 14,
		textplot.Series{Label: "avg bandwidth", Marker: '*', X: xs, Y: avgBW}))
	fmt.Println(textplot.Plot("Fig. 3 analogue: per-connection times (s) vs connections", 60, 14,
		textplot.Series{Label: "individual transfers", Marker: '.', X: sxs, Y: stimes}))
}
