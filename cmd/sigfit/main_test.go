package main

import (
	"strings"
	"testing"
)

// TestCheckFlagsRejectsBadN pins the process count sigfit used to act on:
// -n 1 simulated six one-node clusters before failing inside the fit.
func TestCheckFlagsRejectsBadN(t *testing.T) {
	for _, tc := range []struct {
		n      int
		reject bool
	}{
		{24, false}, {2, false}, {1, true}, {0, true}, {-4, true},
	} {
		err := checkFlags(tc.n)
		if got := err != nil; got != tc.reject {
			t.Errorf("-n %d: error %v, want rejected=%v", tc.n, err, tc.reject)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "-n ") {
			t.Errorf("-n %d: error %q does not name -n", tc.n, err)
		}
	}
}
