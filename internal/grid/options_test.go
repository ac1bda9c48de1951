package grid

import (
	"strings"
	"testing"

	"repro/internal/coll"
)

// TestOptionsValidateRejectsNegatives: validation runs before any
// probing, so a malformed Options fails NewPlanner, NewService and
// FitLeaf fast with an error naming the bad field and value — never a
// panic inside a probe goroutine.
func TestOptionsValidateRejectsNegatives(t *testing.T) {
	topo := testTopo()
	for _, tc := range []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative workers", func(o *Options) { o.Workers = -3 }, "Workers -3 is negative"},
		{"negative cache cap", func(o *Options) { o.CacheCap = -1 }, "CacheCap -1 is negative"},
		{"negative fluid threshold", func(o *Options) { o.FluidThreshold = -5 }, "FluidThreshold -5 is negative"},
		{"negative fit n", func(o *Options) { o.FitN = -3 }, "FitN -3 is below 2"},
		{"one-rank fit n", func(o *Options) { o.FitN = 1 }, "FitN 1 is below 2"},
		{"negative reps", func(o *Options) { o.Reps = -1 }, "Reps -1 is negative"},
	} {
		opt := cheapOptions()
		tc.mut(&opt)
		_, errPlanner := NewPlanner(topo, opt)
		_, errService := NewService(opt)
		_, errFit := FitLeaf(wanTunedGE(), coll.PostAll, opt)
		for _, err := range []error{errPlanner, errService, errFit} {
			if err == nil {
				t.Fatalf("%s: options accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: error %q, want mention of %q", tc.name, err, tc.want)
			}
		}
	}
	// Zero values are defaults, not errors.
	if _, err := NewPlanner(topo, cheapOptions()); err != nil {
		t.Fatalf("baseline options rejected: %v", err)
	}
}
