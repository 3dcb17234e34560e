package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"cbma/internal/obs"
)

// testObserver builds an observer with a deterministic clock and a buffered
// JSONL sink, returning the sink's buffer for post-run assertions.
func testObserver() (*obs.Observer, *obs.Sink, *bytes.Buffer) {
	var buf bytes.Buffer
	sink := obs.NewSink(&buf, 1<<16)
	o := obs.New(obs.Config{
		Clock: obs.StepClock(time.Unix(0, 0), time.Microsecond),
		Sink:  sink,
	})
	return o, sink, &buf
}

// TestRunObsEquivalence is the telemetry layer's hard invariant: attaching an
// Observer — spans, counters and a live event sink — changes nothing about a
// run's Metrics, at any worker count, including under the full fault
// profile's quarantine and retry paths.
func TestRunObsEquivalence(t *testing.T) {
	for name, scn := range workerScenarios(t) {
		t.Run(name, func(t *testing.T) {
			bare := scn
			bare.Workers = 1
			e, err := NewEngine(bare)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 7} {
				s := scn
				s.Workers = workers
				o, sink, _ := testObserver()
				s.Obs = o
				e, err := NewEngine(s)
				if err != nil {
					t.Fatal(err)
				}
				m, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(baseline, m) {
					t.Errorf("metrics with telemetry (W=%d) diverge from bare run:\n  bare: %+v\n  obs:  %+v",
						workers, baseline, m)
				}
				// The instrumentation must actually have been live, or the
				// equivalence above proves nothing.
				if got := o.Counter("sim.rounds.executed").Value(); got != int64(m.RoundsExecuted) {
					t.Errorf("W=%d: sim.rounds.executed = %d, want %d", workers, got, m.RoundsExecuted)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				if sink.Written() == 0 {
					t.Errorf("W=%d: no events written", workers)
				}
			}
		})
	}
}

// TestSICObsEquivalence: the SIC receive path records its detect and
// decode spans (one detect span per detection pass, one decode span per
// decoded user), and attaching the observer leaves a dense SIC run's
// Metrics untouched.
func TestSICObsEquivalence(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 6
	scn.SIC = true
	scn.TagLineDistance = 2
	scn.Packets = packets(t, 16)
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	o, sink, _ := testObserver()
	observed := scn
	observed.Obs = o
	e, err = NewEngine(observed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, m) {
		t.Errorf("SIC metrics with telemetry diverge from bare run:\n  bare: %+v\n  obs:  %+v", bare, m)
	}
	detect := o.Histogram("rx.phase.detect_ns").Count()
	decode := o.Histogram("rx.phase.decode_ns").Count()
	if decode < int64(m.FramesDetected) || decode == 0 {
		t.Errorf("rx.phase.decode_ns count = %d, want ≥ %d decoded users", decode, m.FramesDetected)
	}
	if detect < decode {
		t.Errorf("rx.phase.detect_ns count = %d, want at least one pass per decode span (%d)", detect, decode)
	}
}

// TestCampaignObsEquivalence extends the invariant to RunCampaign and checks
// the campaign-level event record: attaching a campaign observer leaves every
// point's Metrics untouched while the sink sees the campaign lifecycle and
// one point event per scenario.
func TestCampaignObsEquivalence(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 16)
	var points []Scenario
	for i := 0; i < 4; i++ {
		scn := base
		scn.NumTags = 2 + i%2
		scn.Seed = DeriveSeed(base.Seed, 9998, uint64(i))
		points = append(points, scn)
	}
	bare, err := RunCampaign(points, CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, sink, buf := testObserver()
	observed, err := RunCampaign(points, CampaignOpts{Workers: 8, What: "obs equivalence", Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("campaign metrics with telemetry diverge:\n  bare: %+v\n  obs:  %+v", bare, observed)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"campaign_start"`, `"campaign_end"`} {
		if !strings.Contains(out, want) {
			t.Errorf("event log missing %s", want)
		}
	}
	if got := strings.Count(out, `"type":"point"`); got != len(points) {
		t.Errorf("event log has %d point events, want %d", got, len(points))
	}
	if got := o.Histogram("campaign.point_ns").Count(); got != int64(len(points)) {
		t.Errorf("campaign.point_ns count = %d, want %d", got, len(points))
	}
}

// TestMergeFinalizedPartialsAirtime is the regression test for the airtime
// double-count: merging already-finalized partials (each carrying a nonzero
// AirtimeSeconds derived from its samples) and finalizing the aggregate must
// equal finalizing the serial merge of the raw partials — the sample count
// must not be converted to seconds twice. It also pins finalize idempotence.
func TestMergeFinalizedPartialsAirtime(t *testing.T) {
	scn := fastScenario()
	partial := func(samples int64) Metrics {
		return Metrics{
			NumTags:        2,
			FramesSent:     2,
			AirtimeSamples: samples,
		}
	}
	raws := []Metrics{partial(40000), partial(25000), partial(35000)}

	var serial Metrics
	for _, p := range raws {
		serial.Merge(p)
	}
	serial.finalize(scn)

	var merged Metrics
	for _, p := range raws {
		fin := p
		fin.finalize(scn)
		if fin.AirtimeSeconds <= 0 {
			t.Fatalf("finalized partial has no airtime: %+v", fin)
		}
		merged.Merge(fin)
	}
	merged.finalize(scn)

	if merged.AirtimeSeconds != serial.AirtimeSeconds {
		t.Errorf("airtime double-counted when merging finalized partials: got %v, want %v",
			merged.AirtimeSeconds, serial.AirtimeSeconds)
	}
	again := merged
	again.finalize(scn)
	if again.AirtimeSeconds != merged.AirtimeSeconds {
		t.Errorf("finalize is not idempotent: %v then %v", merged.AirtimeSeconds, again.AirtimeSeconds)
	}

	// Directly-constructed aggregates (tests, external callers) that carry
	// only AirtimeSeconds keep it through finalize.
	direct := Metrics{AirtimeSeconds: 1.5}
	direct.finalize(scn)
	if direct.AirtimeSeconds != 1.5 {
		t.Errorf("direct AirtimeSeconds not preserved: got %v", direct.AirtimeSeconds)
	}
}
