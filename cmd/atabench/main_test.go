package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlagsRejectsBadScaleAndReps pins the inputs atabench used to
// drop silently, running at the default scale instead: a negative,
// NaN or infinite -scale and a negative -reps.
func TestCheckFlagsRejectsBadScaleAndReps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
		reps  int
		flag  string // "" = accepted
	}{
		{"defaults", 0, 0, ""},
		{"explicit", 0.05, 1, ""},
		{"negative scale", -1, 0, "-scale"},
		{"NaN scale", math.NaN(), 0, "-scale"},
		{"infinite scale", math.Inf(1), 0, "-scale"},
		{"negative reps", 0.25, -2, "-reps"},
	} {
		err := checkFlags(tc.scale, tc.reps)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.flag)
		}
	}
}
