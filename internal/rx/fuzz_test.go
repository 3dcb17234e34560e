package rx_test

import (
	"math"
	"testing"

	"cbma/internal/rx"
)

// FuzzFrameSync feeds EnergyDetect arbitrary I/Q prefixes (bytes decoded as
// interleaved int8 I/Q samples) and window/threshold parameters, asserting
// the detector never panics, never reports a start outside the buffer, and
// is deterministic. Window sizes are folded into a range proportional to
// the buffer so the fuzzer explores boundary geometry (windows longer than
// the buffer included) without just allocating gigantic delay lines.
//
// The prefix-sum detector (the one Receive runs) is run on every input and
// must agree exactly: the decoded powers are integers whose sums
// stay far below 2^53, so its prefix-difference window means are identical
// to the reference's streaming accumulator — not merely close.
func FuzzFrameSync(f *testing.F) {
	quiet := make([]byte, 256)
	burst := append(append([]byte{}, quiet...), bytesRamp(256)...)
	f.Add(quiet, 100, 6.0, 8)
	f.Add(burst, 64, 3.0, 16)
	f.Add([]byte{}, 0, 0.0, 0)
	f.Add([]byte{1, 2, 3}, -5, math.Inf(1), -7)
	// Boundary geometry: buffer shorter than the short window; a step
	// landing exactly on the first post-warmup comparator check (the
	// earliest possible fire, back-dating to start 1); short window larger
	// than the long window.
	f.Add(bytesRamp(40), 16, 3.0, 64)
	stepAtWarmup := append(make([]byte, 2*16), bytesRamp(128)...)
	f.Add(stepAtWarmup, 64, 3.0, 16)
	f.Add(stepAtWarmup, 4, 3.0, 100)
	f.Fuzz(func(t *testing.T, raw []byte, longWindow int, thresholdDB float64, shortWindow int) {
		if len(raw) > 1<<14 {
			raw = raw[:1<<14]
		}
		n := len(raw) / 2
		power := make([]float64, n)
		for i := 0; i < n; i++ {
			re := float64(int8(raw[2*i]))
			im := float64(int8(raw[2*i+1]))
			power[i] = re*re + im*im
		}
		longWindow = foldWindow(longWindow, n)
		shortWindow = foldWindow(shortWindow, n)

		start, found := rx.EnergyDetect(power, longWindow, thresholdDB, shortWindow)
		if found && (start < 0 || start >= len(power)) {
			t.Fatalf("EnergyDetect(len=%d, long=%d, th=%g, short=%d) start %d outside buffer",
				len(power), longWindow, thresholdDB, shortWindow, start)
		}
		if found && len(power) == 0 {
			t.Fatal("EnergyDetect found a frame in an empty buffer")
		}
		start2, found2 := rx.EnergyDetect(power, longWindow, thresholdDB, shortWindow)
		if start2 != start || found2 != found {
			t.Fatalf("EnergyDetect is not deterministic: (%d,%v) then (%d,%v)",
				start, found, start2, found2)
		}
		pstart, pfound := rx.EnergyDetectPrefix(power, longWindow, thresholdDB, shortWindow)
		if pstart != start || pfound != found {
			t.Fatalf("prefix detector diverges on integer powers: reference (%d,%v) vs prefix (%d,%v) (len=%d, long=%d, th=%g, short=%d)",
				start, found, pstart, pfound, len(power), longWindow, thresholdDB, shortWindow)
		}
	})
}

// foldWindow maps an arbitrary fuzzed int into [w_min, ~2n], keeping
// negative and oversized candidates in play at sane magnitudes.
func foldWindow(w, n int) int {
	span := 2*n + 8
	if w < 0 {
		w = -(w + 1) // avoids the minint negation overflow
	}
	return w%span - 4
}

// bytesRamp builds n bytes of growing amplitude: a crude frame burst.
func bytesRamp(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(40 + i%80)
	}
	return out
}
