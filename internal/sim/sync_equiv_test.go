package sim

import (
	"reflect"
	"testing"
)

// TestRunSyncEquivalence is the campaign-level half of the fast-sync
// guarantee: for every pipeline fixture — including the faulted profile,
// whose outages drive the receiver through the re-sync fallback — the
// optimized sync path (prefix-sum detection, windowed envelope,
// coarse-to-fine alignment) produces Metrics bit-identical to the
// pre-optimization reference, at any worker count.
func TestRunSyncEquivalence(t *testing.T) {
	for name, scn := range workerScenarios(t) {
		t.Run(name, func(t *testing.T) {
			ref := scn
			ref.referenceSync = true
			ref.Workers = 1
			e, err := NewEngine(ref)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 7} {
				s := scn
				s.referenceSync = false
				s.Workers = workers
				e, err := NewEngine(s)
				if err != nil {
					t.Fatal(err)
				}
				m, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(baseline, m) {
					t.Errorf("fast sync metrics (W=%d) diverge from reference sync:\n  ref:  %+v\n  fast: %+v",
						workers, baseline, m)
				}
			}
		})
	}
}

// TestCampaignSyncEquivalence extends the invariant to RunCampaign: a
// four-point sweep run with the reference sync path equals the same sweep
// on the fast path, point for point.
func TestCampaignSyncEquivalence(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 16)
	var ref, fast []Scenario
	for i := 0; i < 4; i++ {
		scn := base
		scn.NumTags = 2 + i%2
		scn.Seed = DeriveSeed(base.Seed, 9997, uint64(i))
		scn.referenceSync = true
		ref = append(ref, scn)
		scn.referenceSync = false
		fast = append(fast, scn)
	}
	want, err := RunCampaign(ref, CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCampaign(fast, CampaignOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("campaign metrics diverge between sync paths:\n  ref:  %+v\n  fast: %+v", want, got)
	}
}
