package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/fault"
)

// FuzzScenarioJSON drives the plain-data contract with arbitrary request
// bodies: whatever decodes, validates and hashes must re-encode to JSON
// that decodes back to a scenario with the same hash and the same bytes —
// the property that lets one JSON form serve as hash input, shard wire and
// cbmad schema. The raw decode must hash equally too, since validation is
// the normalization the hash is defined over.
func FuzzScenarioJSON(f *testing.F) {
	faulted := DefaultScenario()
	faulted.Fault = &fault.Profile{AckLossProb: 0.2, PanicProb: 0.05, MaxRoundRetries: 2}
	multipath := DefaultScenario()
	mp := channel.DefaultMultipath()
	multipath.Multipath = &mp
	multipath.SIC = true
	wifi := DefaultScenario()
	wifi.Interferers = []channel.Interferer{{WiFi: &channel.WiFiInterferer{PowerDBm: -54, DutyCycle: 0.6}}}
	bluetooth := DefaultScenario()
	bluetooth.Interferers = []channel.Interferer{{Bluetooth: &channel.BluetoothInterferer{PowerDBm: -54}}}
	for _, s := range []Scenario{DefaultScenario(), faulted, multipath, wifi, bluetooth} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"NumTags":3,"Packets":5,"Interferers":[],"ExtraDelayChips":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw Scenario
		if err := json.Unmarshal(data, &raw); err != nil {
			return
		}
		norm := raw
		if err := norm.validate(); err != nil {
			if _, herr := raw.Hash(); herr == nil {
				t.Fatalf("invalid scenario (%v) hashed", err)
			}
			return
		}
		want, err := norm.Hash()
		if h, rerr := raw.Hash(); h != want || (err == nil) != (rerr == nil) {
			t.Fatalf("raw decode hashes to %s, %v; normalized to %s, %v", h, rerr, want, err)
		}
		if err != nil {
			return // derived geometry overflowed to ±Inf, which JSON cannot carry
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		var back Scenario
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("normalized JSON does not decode: %v\n%s", err, enc)
		}
		if h, err := back.Hash(); err != nil || h != want {
			t.Fatalf("round trip hashes to %s, %v; want %s\n%s", h, err, want, enc)
		}
		if err := back.validate(); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("normalized JSON is not a fixed point:\n%s\n%s", enc, again)
		}
	})
}
