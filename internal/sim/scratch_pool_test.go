package sim

import (
	"reflect"
	"testing"

	"cbma/internal/pn"
)

// Mixing buffers and receiver sample scratch come from process-wide pools,
// so a round may inherit a buffer last used by a longer or shorter round of
// another point, on another worker. Points whose buffers differ in length
// (tag count, payload size) and in which scratch they touch (SIC on/off, a
// sparse code family whose SIC pass reads the residual envelope) must
// still produce, in one campaign at any worker budget, exactly the metrics
// each produces run alone and serially.
func TestPooledScratchEquivalence(t *testing.T) {
	shapes := []struct {
		tags, payload int
		sic           bool
		family        pn.Family
	}{
		{2, 8, false, pn.FamilyGold},
		{5, 32, true, pn.FamilyGold},
		{3, 4, false, pn.FamilyGold},
		{4, 16, true, pn.FamilyGold},
		{2, 64, false, pn.FamilyGold},
		{3, 8, true, pn.Family2NC},
	}
	points := make([]Scenario, len(shapes))
	for i, sh := range shapes {
		scn := DefaultScenario()
		scn.NumTags, scn.PayloadBytes, scn.SIC, scn.Family = sh.tags, sh.payload, sh.sic, sh.family
		scn.Packets = packets(t, 8)
		scn.Seed = DeriveSeed(7, 4242, uint64(i))
		points[i] = scn
	}
	alone := make([]Metrics, len(points))
	for i, scn := range points {
		m, err := RunCampaign([]Scenario{scn}, CampaignOpts{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = m[0]
	}
	for _, w := range []int{1, 2, 4} {
		got, err := RunCampaign(points, CampaignOpts{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			if !reflect.DeepEqual(got[i], alone[i]) {
				t.Errorf("W=%d campaign, point %d: %+v\n  alone: %+v", w, i, got[i], alone[i])
			}
		}
		// A single-point campaign hands the whole budget to the point's
		// round workers, whose receiver clones borrow scratch side by side.
		for i, scn := range points {
			m, err := RunCampaign([]Scenario{scn}, CampaignOpts{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m[0], alone[i]) {
				t.Errorf("W=%d alone, point %d: %+v\n  serial: %+v", w, i, m[0], alone[i])
			}
		}
	}
}
