package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// The receiver's original timing-acquisition chain (streaming energy
// detection, full envelope, exhaustive alignment) is now the oracle in the
// rx tests, which sim tests cannot reach. The digests below were recorded
// from that chain, run through the whole engine at one worker, while it
// was still selectable here. Matching them shows that the fast sync path
// reproduces the reference campaign results bit for bit. The worker-*
// cases of TestRoundResultGolden pin the same fixtures at 24 packets.

// TestRunSyncEquivalence is the campaign-level half of the fast-sync
// guarantee: for every pipeline fixture, including the faulted profile
// whose outages drive the receiver through the re-sync fallback, the fast
// sync path at 1, 4 and 7 workers produces the Metrics the reference sync
// path produced, here at six packets per fixture.
func TestRunSyncEquivalence(t *testing.T) {
	reference := map[string]string{
		"plain":        "cdf6a5c913a9d98968e9888d1d5e41c1981045772c39177ff835a27365937786",
		"faulted":      "3ffc5dd7ba3b6026f0b5236696956df876d2d2ef1a655082948678a4c78db0af",
		"powercontrol": "be930d60290fb92c735d45d1945b1ba826c97d27f44b3c4da8bd0b3707cbe728",
		"sic+cfo":      "559c502a2f1e49b10bdf3c2712339c26e01a7cdffa989cc16a9efdf93d51f250",
		"static+intf":  "2d3e79d4736eaf5d5f48c129a9a7c55f6bde34fae4f2f345c06905e441290ae2",
	}
	for name, scn := range workerScenarios(t) {
		want, ok := reference[name]
		if !ok {
			t.Fatalf("fixture %q has no reference-sync digest", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 7} {
				s := scn
				s.Packets = 6
				s.Workers = workers
				e, err := NewEngine(s)
				if err != nil {
					t.Fatal(err)
				}
				m, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := metricsDigest(t, m); got != want {
					t.Errorf("fast sync metrics (W=%d) digest %s, reference sync %s", workers, got, want)
				}
			}
		})
	}
}

// TestCampaignSyncEquivalence extends the invariant to RunCampaign: a
// four-point sweep on the fast path equals, point for point, the same
// sweep run with the reference sync path.
func TestCampaignSyncEquivalence(t *testing.T) {
	base := fastScenario()
	base.Packets = 16
	var points []Scenario
	for i := 0; i < 4; i++ {
		scn := base
		scn.NumTags = 2 + i%2
		scn.Seed = DeriveSeed(base.Seed, 9997, uint64(i))
		points = append(points, scn)
	}
	got, err := RunCampaign(points, CampaignOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	const want = "b35461e26531921504f2a7d082008ed22506173918909f3857948d83c1a0fd53"
	if d := hex.EncodeToString(sum[:]); d != want {
		t.Errorf("campaign metrics digest %s, reference sync %s:\n  fast: %+v", d, want, got)
	}
}
