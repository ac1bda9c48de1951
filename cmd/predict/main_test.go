package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestCheckFlagsNamesTheBadFlag: every unusable parameter is rejected
// with an error naming its flag, and the README's example is accepted.
// Before checkFlags, predict printed a negative time for -gamma -2
// -delta -1 -M -5 and NaN or +Inf for a NaN γ or an infinite α.
func TestCheckFlagsNamesTheBadFlag(t *testing.T) {
	ok := model.Signature{H: model.Hockney{Alpha: 46.8e-6, Beta: 8.44e-9}, Gamma: 4.36, Delta: 4.93e-3, M: 8192}
	if err := checkFlags(ok, 40, 1<<20); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		flag string
		mut  func(s *model.Signature, n, m *int)
	}{
		{"-alpha", func(s *model.Signature, _, _ *int) { s.H.Alpha = 0 }},
		{"-alpha", func(s *model.Signature, _, _ *int) { s.H.Alpha = inf }},
		{"-alpha", func(s *model.Signature, _, _ *int) { s.H.Alpha = nan }},
		{"-beta", func(s *model.Signature, _, _ *int) { s.H.Beta = -8.44e-9 }},
		{"-beta", func(s *model.Signature, _, _ *int) { s.H.Beta = inf }},
		{"-gamma", func(s *model.Signature, _, _ *int) { s.Gamma = -2 }},
		{"-gamma", func(s *model.Signature, _, _ *int) { s.Gamma = 0.99 }},
		{"-gamma", func(s *model.Signature, _, _ *int) { s.Gamma = nan }},
		{"-delta", func(s *model.Signature, _, _ *int) { s.Delta = -1 }},
		{"-delta", func(s *model.Signature, _, _ *int) { s.Delta = inf }},
		{"-M", func(s *model.Signature, _, _ *int) { s.M = -5 }},
		{"-n", func(_ *model.Signature, n, _ *int) { *n = 1 }},
		{"-m", func(_ *model.Signature, _, m *int) { *m = 0 }},
	} {
		s, n, m := ok, 40, 1<<20
		tc.mut(&s, &n, &m)
		err := checkFlags(s, n, m)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%s: error %v, want one naming %s", tc.flag, err, tc.flag)
		}
	}
}
