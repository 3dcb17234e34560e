package sim

import (
	"testing"

	"cbma/internal/channel"
	"cbma/internal/fault"
	"cbma/internal/frame"
	"cbma/internal/obs"
	"cbma/internal/pn"
)

// Golden digests for the canonical scenario serialization. These pin the
// hash across refactors: any change to the Scenario's JSON form (field
// names, tags), the normalization rules or the schema constant shows up
// here first, and a
// deliberate change must bump scenarioHashSchema (old cache entries and
// manifests then stop matching instead of colliding). The values are the
// cache keys of every store built on Scenario.Hash, so a silent drift
// would invalidate (or worse, alias) production caches.
func TestScenarioHashGolden(t *testing.T) {
	variant := DefaultScenario()
	variant.NumTags = 4
	variant.Family = pn.Family2NC
	variant.TagLineDistance = 2.5
	variant.PowerControl = true
	variant.RandomInitialImpedance = true

	faulted := DefaultScenario()
	faulted.Fault = &fault.Profile{AckLossProb: 0.2, PanicProb: 0.05, MaxRoundRetries: 2}

	cases := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"default", DefaultScenario(), "282a18be6f4fed22edfe7d769a1fd4bd4cf8e2a8aa05f8775b8c0b7da0a7a7dc"},
		{"variant", variant, "95c4fdf45c04bd8794f42377042abf3cfedf5ee3b4283e2cf8aceab2167beef8"},
		{"faulted", faulted, "735c6bd25412049472da20e7d2299cbd5e323c0ca4b1cef026d817bce0f28745"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.scn.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("hash = %s, want %s (a deliberate serialization change must bump scenarioHashSchema and these goldens)", got, tc.want)
			}
		})
	}
}

// The hash must ignore the documented result-neutral knobs and the
// normalization-only differences: two scenarios that run identically must
// share a cache slot.
func TestScenarioHashNeutralFields(t *testing.T) {
	base := DefaultScenario()
	want, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	neutral := map[string]func(*Scenario){
		"workers":           func(s *Scenario) { s.Workers = 7 },
		"obs":               func(s *Scenario) { s.Obs = obs.New(obs.Config{}) },
		"defaulted payload": func(s *Scenario) { s.PayloadBytes = 0 }, // validate restores 16
		"defaulted rates":   func(s *Scenario) { s.ChipRateHz, s.SampleRateHz = 0, 0 },
		"defaulted preamble": func(s *Scenario) {
			s.Frame.PreambleBits = frame.DefaultPreambleBits // validate maps 0 here
		},
		"empty slices": func(s *Scenario) {
			s.ExtraDelayChips, s.Interferers = []float64{}, []channel.Interferer{}
		},
	}
	for name, mod := range neutral {
		scn := base
		mod(&scn)
		got, err := scn.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: hash changed (%s != %s), want result-neutral", name, got, want)
		}
	}
}

// Every result-relevant change must move the digest — including two
// interferer kinds with identical fields, which the tagged union keeps
// apart by key.
func TestScenarioHashSensitivity(t *testing.T) {
	base := DefaultScenario()
	baseHash, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}

	mods := map[string]func(*Scenario){
		"seed":     func(s *Scenario) { s.Seed = 2 },
		"tags":     func(s *Scenario) { s.NumTags = 3 },
		"family":   func(s *Scenario) { s.Family = pn.FamilyWalsh },
		"packets":  func(s *Scenario) { s.Packets = 101 },
		"distance": func(s *Scenario) { s.TagLineDistance = 2 },
		"sic":      func(s *Scenario) { s.SIC = true },
		"preamble": func(s *Scenario) { s.Frame.PreambleBits = 16 },
		"fault":    func(s *Scenario) { s.Fault = &fault.Profile{EnergyOutageProb: 0.1} },
		"wifi": func(s *Scenario) {
			s.Interferers = []channel.Interferer{{WiFi: &channel.WiFiInterferer{PowerDBm: -50}}}
		},
		"bluetooth": func(s *Scenario) {
			s.Interferers = []channel.Interferer{{Bluetooth: &channel.BluetoothInterferer{PowerDBm: -50}}}
		},
		"extra-delay": func(s *Scenario) { s.ExtraDelayChips = []float64{0, 1} },
		"multipath":   func(s *Scenario) { mp := channel.DefaultMultipath(); s.Multipath = &mp },
	}
	seen := map[string]string{baseHash: "base"}
	for name, mod := range mods {
		scn := base
		mod(&scn)
		h, err := scn.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s: hash collides with %q", name, prev)
		}
		seen[h] = name
	}
}

// An unrunnable scenario must refuse to hash rather than produce a key a
// store could be polluted under — including the points that only
// NewEngine's code-set and framing construction used to catch.
func TestScenarioHashInvalid(t *testing.T) {
	bad := map[string]func(*Scenario){
		"no tags":        func(s *Scenario) { s.NumTags = 0 },
		"long preamble":  func(s *Scenario) { s.Frame.PreambleBits = 100 },
		"short preamble": func(s *Scenario) { s.Frame.PreambleBits = 2 },
		"family full":    func(s *Scenario) { s.NumTags = 40 }, // Gold-31 holds 33
		"no gold pair":   func(s *Scenario) { s.GoldDegree = 8 },
		"unknown family": func(s *Scenario) { s.Family = 99 },
		"a billion 2NC tags": func(s *Scenario) {
			s.Family, s.NumTags = pn.Family2NC, 1_000_000_000
		},
		"interferer with no kind": func(s *Scenario) {
			s.Interferers = []channel.Interferer{{}}
		},
		"interferer with two kinds": func(s *Scenario) {
			s.Interferers = []channel.Interferer{{
				WiFi:      &channel.WiFiInterferer{PowerDBm: -50},
				Bluetooth: &channel.BluetoothInterferer{PowerDBm: -50},
			}}
		},
	}
	for name, mod := range bad {
		scn := DefaultScenario()
		mod(&scn)
		if h, err := scn.Hash(); err == nil {
			t.Errorf("%s: Hash() = %s, want error", name, h)
		}
		if _, err := NewEngine(scn); err == nil {
			t.Errorf("%s: NewEngine succeeded, want error", name)
		}
	}
}
