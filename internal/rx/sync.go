package rx

import (
	"cbma/internal/dsp"
)

// backdateStart back-dates the comparator's fire index by the short window
// length, clamping at the buffer head: a fire within the first window
// back-dates to the buffer start rather than a negative index.
func backdateStart(fire, shortWindow int) int {
	start := fire - shortWindow + 1
	if start < 0 {
		return 0
	}
	return start
}

// energyDetectPrefix implements the paper's frame synchronization
// (§III-B): the received power sequence is smoothed by a moving-average
// filter and a comparator flags a new frame when the short-term power —
// averaged over shortWindow samples — exceeds the long-term filtered level
// by thresholdDB. The long-term average is frozen once the comparator fires
// so the frame's own energy cannot raise the reference.
//
// shortWindow trades false alarms against start accuracy: the mean of k
// noise-power samples exceeds twice its expectation with probability
// ≈exp(−0.31·k), so a window under ~50 samples false-fires on long noise
// buffers. The receiver therefore uses one bit duration (floored at 64
// samples) and compensates the resulting start uncertainty by widening the
// per-user preamble search (detect.go).
//
// The long-term reference is fed through a delay line one short window
// long. Without it, the reference absorbs the frame's own energy while the
// short window is still filling, and for short spreading codes the
// short/long ratio tops out at exactly the comparator threshold — detection
// becomes a coin flip. Delayed, the reference stays noise-only until after
// the comparator has fired. Both averages warm up on the first shortWindow
// samples; the simulator always provides a noise-only lead.
//
// Every window mean is read from the power prefix-sum array (prefix =
// dsp.PrefixSumInto(_, power)) in O(1) work per position. At check index i
// the short-term mean is the last shortWindow samples, and the long-term
// reference — whose delay line re-pushes the warmup samples, so its push
// sequence is power[0:sw] ++ power[0:i−sw] — is the mean of the last
// min(i, longWindow) entries of that sequence. The three cases below are
// that tail straddling (or not) the warmup/replay seam. The streaming form
// (two moving averagers and the delay-line ring) is the oracle in the rx
// tests: window means differ from it only in floating-point association
// order, decisions are identical on every covered scenario
// (TestSyncEquivalenceReceive), and exactly identical on integer-valued
// power (FuzzFrameSync).
//
// The returned start back-dates the fire index by the short window length;
// the true frame start lies within [start, start+shortWindow].
//
//cbma:hotpath
func energyDetectPrefix(prefix []float64, longWindow int, thresholdDB float64, shortWindow int) (start int, found bool) {
	n := len(prefix) - 1
	if n <= 0 {
		return 0, false
	}
	if longWindow < 2 {
		longWindow = 2
	}
	if shortWindow < 1 {
		shortWindow = 1
	}
	if n <= shortWindow {
		return 0, false // warmup consumes the whole buffer
	}
	factor := dsp.FromDB(thresholdDB)
	sw, lw := shortWindow, longWindow
	for i := sw; i < n; i++ {
		s := (prefix[i+1] - prefix[i+1-sw]) / float64(sw)
		r := i - sw // samples replayed through the delay line
		var longVal float64
		switch {
		case r >= lw:
			longVal = (prefix[r] - prefix[r-lw]) / float64(lw)
		case i < lw:
			// Ring not yet full: every push so far contributes.
			longVal = (prefix[sw] + prefix[r]) / float64(i)
		default:
			// Tail of the warmup block plus all replayed samples.
			k := lw - r
			longVal = (prefix[sw] - prefix[sw-k] + prefix[r]) / float64(lw)
		}
		if longVal > 0 && s > factor*longVal {
			return backdateStart(i, sw), true
		}
	}
	return 0, false
}
