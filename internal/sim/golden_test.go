package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/fault"
	"cbma/internal/pn"
	"cbma/internal/trace"
)

// metricsDigest is the SHA-256 of the Metrics JSON encoding: every exported
// counter, rate and interval of a run.
func metricsDigest(t *testing.T, m Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Golden result digests. The scenario-hash goldens pin cache keys; these pin
// what a scenario computes. Every transmit-path, channel and RNG-plumbing
// refactor claims bit-identical results, and this matrix is where that claim
// is checked: each case exercises one branch of the transmit and mixing
// stages (CFO ramp, excitation gate, energy-outage cut, fractional vs
// whole-sample delay, one sample per chip, replayed links) or of the round
// runner (adhoc exploration rounds, retried and quarantined rounds). A
// deliberate result change must say so and update the digests.
func TestRoundResultGolden(t *testing.T) {
	// Five tags at 4 m lose about a fifth of their frames: a regime where
	// a perturbed sample flips decisions instead of vanishing under margin.
	small := func() Scenario {
		scn := DefaultScenario()
		scn.NumTags = 5
		scn.TagLineDistance = 4
		scn.PayloadBytes = 8
		scn.Packets = 16
		return scn
	}
	cfo := small()
	cfo.CFOppm = 0.5

	gated := small()
	gated.OFDMExcitation = true

	outage := small()
	outage.Fault = &fault.Profile{EnergyOutageProb: 0.3, ExtraJitterChips: 0.3}

	combined := small()
	combined.CFOppm = 0.5
	combined.OFDMExcitation = true
	combined.Fault = &fault.Profile{EnergyOutageProb: 0.3}

	multipath := small()
	mp := channel.DefaultMultipath()
	multipath.Multipath = &mp
	multipath.SIC = true

	oneSPC := small()
	oneSPC.SampleRateHz = oneSPC.ChipRateHz

	static := small()
	static.StaticChannel = true
	static.JitterChips = 0

	powerControl := small()
	powerControl.PowerControl = true
	powerControl.RandomInitialImpedance = true
	powerControl.PacketsPerRound = 5

	execFaults := small()
	execFaults.Fault = &fault.Profile{PanicProb: 0.2, TransientErrProb: 0.3, MaxRoundRetries: 2}

	// Ten tags on Gold-31 with SIC (the headline load): at this distance
	// and seed the receiver accepts most frames, fails CRC on several
	// (so later detection passes run over an unchanged residual) and
	// suppresses a payload ghost.
	denseSIC := small()
	denseSIC.NumTags = 10
	denseSIC.TagLineDistance = 1
	denseSIC.Packets = 4
	denseSIC.Seed = 2
	denseSIC.SIC = true

	// 127-chip Gold codes with SIC: longer chip walks per cancelled user.
	gold127SIC := small()
	gold127SIC.NumTags = 4
	gold127SIC.GoldDegree = 7
	gold127SIC.Packets = 4
	gold127SIC.SIC = true

	// Sparse (2NC) codes with SIC: the only code family whose detection
	// reads the residual's envelope.
	sparseSIC := small()
	sparseSIC.Family = pn.Family2NC
	sparseSIC.NumTags = 6
	sparseSIC.Packets = 4
	sparseSIC.SIC = true

	// The worker-equivalence fixtures (pipeline_test.go) at a fixed packet
	// count, so -short cannot move their digests: three tags on the plain
	// engine, the full fault profile, a static channel with a WiFi
	// interferer and OFDM excitation, CFO with phase tracking and SIC, and
	// power control over a lossy ACK downlink.
	worker := func(name string) Scenario {
		scn := workerScenarios(t)[name]
		scn.Packets = 24
		return scn
	}

	// Deep fades bury the energy rise of three of the sixteen rounds, so
	// the receiver anchors them at the reader's nominal timing (the resync
	// fallback); none of the fixtures above reaches that path.
	deepFade := small()
	deepFade.NumTags = 2
	deepFade.Fault = &fault.Profile{DeepFadeProb: 0.5}

	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"default", small(), "16ae9a86585dcf733b47e6f4d2b9abf807b42801df42ecbb76131bd1a25acb2f"},
		{"cfo", cfo, "f653d32a3ff81fb9d73c40e36d71be93d2cc442920f92d0e100f059973df0aa1"},
		{"ofdm-gate", gated, "5d03f126baf5b2edd5b8bce94736b69c91ed39a427dc7fba881b74c21c0684e5"},
		{"outage+extra-jitter", outage, "0092262febbe636e828301ad4072405ebc3a6db1dd1729245430c6fcb519a1f9"},
		{"cfo+gate+outage", combined, "721d72a88bfb16cfad07d4360b14646583b975cb842d5c97f08eca73dbd0c067"},
		{"multipath+sic", multipath, "5fa72fe59edc9647b364ed92eab3941c707f412288b833de6b3db51c433250d8"},
		{"one-sample-per-chip", oneSPC, "e1709cc69d68a522e5335c017b97fb3cac011f8499c409b7d41ede64262a6ad1"},
		{"static-zero-jitter", static, "e28251472186fdb59b4bd30b6e62f016b3747661be83116debcc2fe47ddc1099"},
		{"power-control", powerControl, "3c4b49f9de797d40b234256ffa8c1e085e6273247543194d2a53915a48044f3d"},
		{"exec-faults", execFaults, "3ed2908d8f8e89966af7ba2e85682324a3ca3e9f88c6610c9644ffc345ebc996"},
		{"dense-sic-gold31", denseSIC, "35f49f3344c6464a0e2ba8ce79dc34d977331030a715102853d2ebeb713401e9"},
		{"sic-gold127", gold127SIC, "e23d4a9a85bde2f95723b9949015a26471036cbaf8d03a3be4a14caa340761f0"},
		{"sic-2nc", sparseSIC, "121e45ed091f3de4648f296bb79b46e6708becaae6f49ffe186dac38c34c0ad0"},
		{"worker-plain", worker("plain"), "9d59a04b578e71994a6552ad28c5ed366b122c21c64bfe199074e523eb625eb0"},
		{"worker-faulted", worker("faulted"), "4111a80a7cb7a170b7305ff65a66ae02ef1b8335ce6d90ac789e1568281f2322"},
		{"worker-static+intf", worker("static+intf"), "e7e636e9cd7ab66e966b3415125de372d803375fbc97a076b75e4dd412de8313"},
		{"worker-sic+cfo", worker("sic+cfo"), "f0859faf765618f63403e454c16e3470143f53dec93f4a1237a55a48af8eafb8"},
		{"worker-powercontrol", worker("powercontrol"), "e076cf31e9fdcd25943aa7feede45f8ce7ea4b21e37b11ced566edd01dae79ea"},
		{"resync-deep-fade", deepFade, "113f1d2dd6bed65658ecd1a8cbb117c2772b1d1543a9f9c0cc9da238cd077ce8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := NewEngine(tc.scn)
			if err != nil {
				t.Fatal(err)
			}
			m, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := metricsDigest(t, m); got != tc.want {
				t.Errorf("metrics digest = %s, want %s", got, tc.want)
			}
		})
	}

	t.Run("trace-record-replay", func(t *testing.T) {
		scn := small()
		live, err := NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder("golden")
		live.RecordTo(rec)
		mLive, err := live.Run()
		if err != nil {
			t.Fatal(err)
		}
		replay, err := NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		replay.ReplayFrom(trace.NewPlayer(rec.Trace()))
		mReplay, err := replay.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			m    Metrics
			want string
		}{
			{"record", mLive, "16ae9a86585dcf733b47e6f4d2b9abf807b42801df42ecbb76131bd1a25acb2f"},
			{"replay", mReplay, "16ae9a86585dcf733b47e6f4d2b9abf807b42801df42ecbb76131bd1a25acb2f"},
		} {
			if got := metricsDigest(t, c.m); got != c.want {
				t.Errorf("%s metrics digest = %s, want %s", c.name, got, c.want)
			}
		}
	})
}
