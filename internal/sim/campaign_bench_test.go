package sim

import (
	"fmt"
	"testing"
)

// fig8aQuickPoints is the paperbench Quick fig8a-equivalent workload: the
// Fig. 8(a) distance × tag-count grid at the smoke-run packet budget. The
// benchmark runs the identical scenario list at different worker budgets;
// results are bit-identical (TestCampaignWorkerEquivalence), so the only
// thing the budget buys is wall-clock.
func fig8aQuickPoints() []Scenario {
	base := DefaultScenario()
	base.Packets = 30
	base.PayloadBytes = 8
	distances := []float64{0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0}
	tagCounts := []int{2, 3, 4}
	var points []Scenario
	for _, n := range tagCounts {
		for i, d := range distances {
			scn := base
			scn.NumTags = n
			scn.TagLineDistance = d
			scn.Deployment.Tags = nil
			scn.Seed = DeriveSeed(base.Seed, seedSweepDistance, uint64(i), uint64(n))
			points = append(points, scn)
		}
	}
	return points
}

// BenchmarkCampaignFig8a measures the fig8a-quick campaign at 1 and 4
// workers. The speedup is bounded by the core count, not the worker
// budget: on the 2-core CI runners 4 workers at best halve the wall time.
func BenchmarkCampaignFig8a(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			points := fig8aQuickPoints()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunCampaign(points, CampaignOpts{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRoundsSingleEngine isolates the per-engine round parallelism:
// one scenario, rounds fanned across Engine workers.
func BenchmarkRoundsSingleEngine(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scn := DefaultScenario()
			scn.NumTags = 4
			scn.Packets = 100
			scn.PayloadBytes = 8
			scn.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(scn)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
