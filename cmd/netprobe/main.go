// Command netprobe runs the Section 3 network saturation methodology
// (Figs. 1–3): it opens many simultaneous point-to-point connections on
// a simulated cluster, floods the network, and reports per-connection
// times, the average bandwidth, and the derived βF/βC pair.
//
// Usage:
//
//	netprobe -profile gigabit-ethernet -nodes 16 -conns 40 -size 33554432
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/calib"
	"repro/internal/cluster"
	"repro/internal/stats"
)

func main() {
	var (
		profile = flag.String("profile", "gigabit-ethernet", "cluster profile (fast-ethernet|gigabit-ethernet|myrinet|infiniband-like)")
		nodes   = flag.Int("nodes", 16, "cluster size")
		conns   = flag.Int("conns", 40, "simultaneous connections")
		size    = flag.Int("size", 32<<20, "bytes per connection (paper: 32 MB)")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	p, err := cluster.ByName(*profile)
	if err == nil {
		err = checkFlags(*nodes, *conns, *size)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netprobe: %v\n", err)
		os.Exit(2)
	}

	single := calib.SaturationProbe(p, *nodes, 1, *size, *seed)
	heavy := calib.SaturationProbe(p, *nodes, *conns, *size, *seed)

	fmt.Printf("profile=%s nodes=%d size=%d\n\n", p.Name, *nodes, *size)
	fmt.Printf("single connection: %.4fs (%.1f MB/s)\n\n", single.Times[0], single.AvgBandwidth()/1e6)
	fmt.Printf("%d connections:\n", *conns)
	fmt.Printf("  %-10s %s\n", "conn", "time_s")
	for i, t := range heavy.Times {
		fmt.Printf("  %-10d %.4f\n", i, t)
	}
	fmt.Printf("\nmean=%.4fs p95=%.4fs max=%.4fs (max/mean=%.2fx)\n",
		heavy.MeanTime(), stats.Quantile(heavy.Times, 0.95), heavy.MaxTime(),
		heavy.MaxTime()/heavy.MeanTime())
	fmt.Printf("avg bandwidth=%.1f MB/s\n", heavy.AvgBandwidth()/1e6)
	bf, bc := calib.ExtractBetas(single, heavy)
	fmt.Printf("betaF=%.4g s/B  betaC=%.4g s/B  synthetic beta(rho=0.5)=%.4g s/B\n",
		bf, bc, 0.5*bf+0.5*bc)
}

// checkFlags rejects probe shapes the saturation probe cannot run: a
// connection needs two distinct nodes, and the statistics need at least
// one connection carrying at least one byte.
func checkFlags(nodes, conns, size int) error {
	switch {
	case nodes < 2:
		return fmt.Errorf("-nodes must be at least 2, got %d", nodes)
	case conns < 1:
		return fmt.Errorf("-conns must be at least 1, got %d", conns)
	case size < 1:
		return fmt.Errorf("-size must be at least 1 byte, got %d", size)
	}
	return nil
}
