package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRejectsBadProbes pins the inputs netprobe used to act on:
// -nodes 1 panicked inside the probe's peer draw and -conns 0 printed
// max/mean=NaNx. Each must be rejected with a message naming its flag.
func TestCheckFlagsRejectsBadProbes(t *testing.T) {
	for _, tc := range []struct {
		name               string
		nodes, conns, size int
		flag               string // "" = accepted
	}{
		{"defaults", 16, 40, 32 << 20, ""},
		{"two nodes", 2, 1, 1, ""},
		{"one node", 1, 40, 32 << 20, "-nodes"},
		{"zero nodes", 0, 40, 32 << 20, "-nodes"},
		{"zero conns", 16, 0, 32 << 20, "-conns"},
		{"negative conns", 16, -3, 32 << 20, "-conns"},
		{"zero size", 16, 40, 0, "-size"},
	} {
		err := checkFlags(tc.nodes, tc.conns, tc.size)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.flag)
		}
	}
}
