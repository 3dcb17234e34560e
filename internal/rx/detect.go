package rx

import (
	"math"
	"math/cmplx"

	"cbma/internal/dsp"
)

// detection is the outcome of the per-user preamble search.
type detection struct {
	lag    int        // frame start in samples
	corr   float64    // normalized envelope correlation at lag
	phasor complex128 // unit phasor of the user's channel (preamble phase)
}

// complexRealDot computes Σ x[i]·t[i] for complex samples against a real
// template — the correlation primitive of the coherent bit decisions.
func complexRealDot(x []complex128, t []float64) complex128 {
	var re, im float64
	for i, v := range t {
		re += real(x[i]) * v
		im += imag(x[i]) * v
	}
	return complex(re, im)
}

// sweep holds the precomputed per-code correlation rows of one detection
// window, produced by the frequency-domain filter bank when the window is
// large enough for the FFT to pay (see Receiver.buildSweep). rows are
// read-only once built.
type sweep struct {
	lo, count int
	// coh[id][k] is the coherent preamble correlation of code id at lag
	// lo+k; env[id][k] the envelope correlation (filled for sparse codes
	// only — dense codes never consult it).
	coh [][]complex128
	env [][]float64
}

// buildSweep evaluates the shared detection window around globalStart for
// every code through the filter bank, or returns nil when the bank's cost
// model keeps the direct per-lag loops (small windows — the default
// configuration — stay bit-identical with the naive scan). The returned
// sweep aliases receiver scratch: it is valid until the next buildSweep
// call and must not outlive it.
func (r *Receiver) buildSweep(env []float64, x []complex128, globalStart int) *sweep {
	lo, hi, ok := r.searchWindow(globalStart, len(x))
	if !ok {
		return nil
	}
	count := hi - lo + 1
	n := r.cfg.Codes.Size()
	if !r.bank.ShouldUseFFT(count, n, true) {
		return nil
	}
	r.cohRows = growComplexRows(r.cohRows, n, count)
	if err := r.bank.CorrelateAll(x, lo, count, nil, r.cohRows); err != nil {
		r.noteFFTFallback("sweep", err)
		return nil
	}
	sw := &sweep{lo: lo, count: count, coh: r.cohRows}
	if r.anySparse {
		var sparseIDs []int
		for id, sp := range r.sparse {
			if sp {
				sparseIDs = append(sparseIDs, id)
			}
		}
		r.envRows = growFloatRows(r.envRows, n, count)
		rows := make([][]float64, len(sparseIDs))
		sw.env = make([][]float64, n)
		for j, id := range sparseIDs {
			rows[j] = r.envRows[id]
			sw.env[id] = r.envRows[id]
		}
		if err := r.bank.CorrelateRealAll(env, lo, count, sparseIDs, rows); err != nil {
			r.noteFFTFallback("sweep_env", err)
			return nil
		}
	}
	return sw
}

// searchWindow is the per-user timing window around the global alignment,
// shared by every code (equal template lengths make lo/hi code-independent).
func (r *Receiver) searchWindow(globalStart, n int) (lo, hi int, ok bool) {
	tmplLen := len(r.preambleTmpl[0])
	slack := r.cfg.SearchChips * r.cfg.SamplesPerChip
	lo = globalStart - slack
	if lo < 0 {
		lo = 0
	}
	hi = globalStart + slack
	if hi+tmplLen > n {
		hi = n - tmplLen
	}
	if hi < lo {
		return 0, 0, false
	}
	return lo, hi, true
}

func growFloatRows(rows [][]float64, n, count int) [][]float64 {
	if len(rows) < n {
		rows = append(rows, make([][]float64, n-len(rows))...)
	}
	for i := 0; i < n; i++ {
		if cap(rows[i]) < count {
			rows[i] = make([]float64, count)
		}
		rows[i] = rows[i][:count]
	}
	return rows
}

func growComplexRows(rows [][]complex128, n, count int) [][]complex128 {
	if len(rows) < n {
		rows = append(rows, make([][]complex128, n-len(rows))...)
	}
	for i := 0; i < n; i++ {
		if cap(rows[i]) < count {
			rows[i] = make([]complex128, count)
		}
		rows[i] = rows[i][:count]
	}
	return rows
}

// detectUser implements §III-B user detection for one code: it slides the
// code's preamble discriminant template over the complex baseband within
// ±SearchChips chips of the global alignment and reports the best normalized
// correlation magnitude. When sw is non-nil the per-lag correlations come
// from the precomputed frequency-domain sweep; the detection statistics at
// the chosen lag are always recomputed with the direct dot product, so the
// reported corr/phasor/CFAR values are path-independent.
//
// The per-user metric is coherent — |Σ x·tmpl| normalized by the window and
// template energies — because the envelope correlation dilutes as 1/√N with
// N concurrent tags and stops separating present from absent users beyond
// two or three tags, while the coherent matched filter keeps its margin.
// The coherent magnitude cannot tell an inverted (one-bit-shifted) preamble
// from a π-rotated channel, but the narrow window around the
// envelope-anchored global alignment never reaches a one-bit shift, so the
// ambiguity is structurally excluded. The window also stays inside the
// cyclic-ambiguity distance of shift-structured families like 2NC (see
// alignCoarseFine) while tolerating the sub-chip clock skew the
// correlation-based detector is built for.
//
// Lag choice and detection value use different statistics because their
// failure modes differ, and the right lag statistic depends on the code's
// structure — this is matched detection, not a tuning hack:
//
//   - Sparse PPM-style codes (2NC: one active chip per bit value) choose
//     the lag by maximum positive envelope correlation. Envelope
//     contributions add without phase cancellation, so the true alignment
//     beats the ±1 chip offsets where the window mixes the tag's own
//     inverted chips with a neighbour's chips — offsets that can win a
//     phase-blind magnitude contest under fading.
//   - Dense balanced codes (Gold, Kasami, Walsh: ~half the chips active)
//     choose the lag by maximum coherent correlation magnitude. Their
//     envelope statistic breaks under near-far — a weak tag's envelope
//     contribution scales with the cosine of its phase offset from the
//     dominant tag and can legitimately go negative — while their
//     autocorrelation rejects ±1 chip offsets on its own.
//
// The detection test at the chosen lag always uses the coherent normalized
// correlation |Σ x·tmpl| / (‖x_win‖·‖tmpl‖), because the envelope value
// dilutes against N concurrent tags and stops separating present from
// absent users, while the coherent matched filter keeps its margin.
//
// On success the detection carries the user's channel phasor — the phase of
// the complex correlation at the chosen lag — as the reference the coherent
// bit decisions project onto. For a sparse code, the residual self-impostor
// (an exactly inverted decode at ±1 chip) is detected and undone by
// decodeUser's preamble-inversion repair.
func (r *Receiver) detectUser(sw *sweep, env []float64, x []complex128, id, globalStart int, noiseW float64) (detection, bool) {
	tmpl := r.preambleTmpl[id]
	lo, hi, ok := r.searchWindow(globalStart, len(x))
	if !ok {
		return detection{}, false
	}
	var tmplEnergy float64
	for _, v := range tmpl {
		tmplEnergy += v * v
	}
	if tmplEnergy == 0 {
		return detection{}, false
	}
	bestLag := -1
	if sw != nil {
		bestLag = r.pickLagFromSweep(sw, id)
	} else if r.sparse[id] {
		bestEnv := 0.0
		cohLag, cohBest := -1, -1.0
		for lag := lo; lag <= hi; lag++ {
			e, err := dsp.DotReal(env[lag:lag+len(tmpl)], tmpl)
			if err != nil {
				return detection{}, false
			}
			if e > bestEnv {
				bestLag, bestEnv = lag, e
			}
			dot := complexRealDot(x[lag:lag+len(tmpl)], tmpl)
			if m := real(dot)*real(dot) + imag(dot)*imag(dot); m > cohBest {
				cohLag, cohBest = lag, m
			}
		}
		if bestLag < 0 {
			bestLag = cohLag // no positive envelope peak: fall back to coherent
		}
	} else {
		cohBest := -1.0
		for lag := lo; lag <= hi; lag++ {
			dot := complexRealDot(x[lag:lag+len(tmpl)], tmpl)
			if m := real(dot)*real(dot) + imag(dot)*imag(dot); m > cohBest {
				bestLag, cohBest = lag, m
			}
		}
	}
	if bestLag < 0 {
		return detection{}, false
	}
	dot := complexRealDot(x[bestLag:bestLag+len(tmpl)], tmpl)
	winE := energyOf(x[bestLag : bestLag+len(tmpl)])
	if winE == 0 {
		return detection{}, false
	}
	mag2 := real(dot)*real(dot) + imag(dot)*imag(dot)
	corr := math.Sqrt(mag2 / (winE * tmplEnergy))
	if corr < r.cfg.DetectThreshold {
		return detection{}, false
	}
	// CFAR test: the matched-filter output must clear the noise floor by
	// the configured deflection. This is the length-sensitive half of
	// detection — integrating a longer preamble buys SNR — while the
	// normalized-correlation test above is the MAI-robust, scale-free
	// half (see Config.CFARThreshold).
	if noiseW > 0 && mag2 < r.cfg.CFARThreshold*noiseW*tmplEnergy {
		return detection{}, false
	}
	best := detection{lag: bestLag, corr: corr, phasor: 1}
	if abs := cmplx.Abs(dot); abs > 0 {
		best.phasor = dot / complex(abs, 0)
	}
	return best, true
}

// pickLagFromSweep reproduces detectUser's lag choice from precomputed
// rows: maximum positive envelope correlation for sparse codes (falling
// back to the coherent peak), maximum coherent magnitude for dense ones.
func (r *Receiver) pickLagFromSweep(sw *sweep, id int) int {
	coh := sw.coh[id]
	bestLag := -1
	if r.sparse[id] && sw.env != nil && sw.env[id] != nil {
		bestEnv := 0.0
		cohLag, cohBest := -1, -1.0
		envRow := sw.env[id]
		for k := 0; k < sw.count; k++ {
			if e := envRow[k]; e > bestEnv {
				bestLag, bestEnv = sw.lo+k, e
			}
			dot := coh[k]
			if m := real(dot)*real(dot) + imag(dot)*imag(dot); m > cohBest {
				cohLag, cohBest = sw.lo+k, m
			}
		}
		if bestLag < 0 {
			bestLag = cohLag
		}
		return bestLag
	}
	cohBest := -1.0
	for k := 0; k < sw.count; k++ {
		dot := coh[k]
		if m := real(dot)*real(dot) + imag(dot)*imag(dot); m > cohBest {
			bestLag, cohBest = sw.lo+k, m
		}
	}
	return bestLag
}

// detectAndDecodeAll runs per-code detection and decoding over the buffer,
// returning frames in code order.
func (r *Receiver) detectAndDecodeAll(env []float64, x []complex128, globalStart int, noiseW float64) []DecodedFrame {
	sw := r.buildSweep(env, x, globalStart)
	var frames []DecodedFrame
	for id := 0; id < r.cfg.Codes.Size(); id++ {
		detSp := r.obs.Start(r.hDetect)
		det, ok := r.detectUser(sw, env, x, id, globalStart, noiseW)
		detSp.End()
		if !ok {
			continue
		}
		decSp := r.obs.Start(r.hDecode)
		f := r.decodeUser(x, id, det.lag, det.phasor)
		decSp.End()
		f.Corr = det.corr
		frames = append(frames, f)
	}
	return frames
}

// detSlot is one code's cached detection outcome in the SIC loop.
type detSlot struct {
	det detection
	ok  bool
}

// detectInto runs user detection for each of the given codes over one
// shared sweep and stores code id's outcome in dets[id].
func (r *Receiver) detectInto(dets []detSlot, ids []int, env []float64, x []complex128, globalStart int, noiseW float64) {
	sw := r.buildSweep(env, x, globalStart)
	for _, id := range ids {
		det, ok := r.detectUser(sw, env, x, id, globalStart, noiseW)
		dets[id] = detSlot{det: det, ok: ok}
	}
}

// bestDetection returns the code among ids with the strongest stored
// detection — the SIC ordering primitive. ids ascend and only a strictly
// greater correlation displaces the incumbent, so ties break toward the
// lowest code ID.
func bestDetection(dets []detSlot, ids []int) (int, detection, bool) {
	bestID := -1
	var bestDet detection
	for _, id := range ids {
		if !dets[id].ok {
			continue
		}
		if bestID < 0 || dets[id].det.corr > bestDet.corr {
			bestID, bestDet = id, dets[id].det
		}
	}
	return bestID, bestDet, bestID >= 0
}

// noteFFTFallback records a filter-bank error that silently dropped a
// detection sweep to the direct per-lag loops. The results are
// unaffected — the direct path computes the same correlations — but the
// cost regresses to the O(lags×codes) product the bank exists to avoid, so
// the fallback must be visible in the run manifest (counter) and event log
// rather than only as unexplained wall time.
func (r *Receiver) noteFFTFallback(where string, err error) {
	r.cFFTFallback.Inc()
	if r.obs.EmitsEvents() {
		r.obs.Emit("rx_fft_fallback", map[string]any{"where": where, "error": err.Error()})
	}
}

// energyOf returns Σ|x[i]|².
func energyOf(x []complex128) float64 {
	var acc float64
	for _, v := range x {
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	return acc
}
