// Package rx implements the CBMA receiver chain of §III-B: energy-based
// frame synchronization with a moving-average filter and +3 dB comparator,
// correlation-based user detection against every PN code in the deployment,
// per-chip correlation decoding with per-user timing refinement (the
// "correlation-based detector" that tolerates asynchronous tags), CRC
// verification, and acknowledgement generation.
package rx

import (
	"errors"
	"fmt"
	"sync"

	"cbma/internal/dsp"
	"cbma/internal/frame"
	"cbma/internal/obs"
	"cbma/internal/pn"
)

// Errors returned by the receiver.
var (
	ErrNoCodes   = errors.New("rx: a code set is required")
	ErrShortRead = errors.New("rx: sample buffer ends inside the frame")
)

// Config parameterizes the receiver.
type Config struct {
	// Codes is the PN code set shared with the tag population.
	Codes *pn.Set
	// SamplesPerChip is the oversampling factor (receiver sample rate over
	// chip rate).
	SamplesPerChip int
	// Frame is the link-layer framing configuration.
	Frame frame.Config
	// SyncWindow is the moving-average window W_n (in samples) of the
	// energy detector. Zero selects four chip periods.
	SyncWindow int
	// SyncThresholdDB is the comparator margin over the filtered power
	// level (paper: 3 dB). Zero selects 3.
	SyncThresholdDB float64
	// DetectThreshold is the minimum normalized preamble correlation for a
	// user to be declared present (§III-B user detection). Zero selects
	// 0.15: noise-only correlations over the preamble templates sit at
	// ≈3σ–5σ below that, while a present user among up to ~10 equal-power
	// concurrent tags still clears it despite envelope-energy dilution.
	DetectThreshold float64
	// SearchChips bounds the per-user timing search around the global fine
	// alignment, in chips. Zero selects one chip each way — wide enough for
	// the sub-chip clock skew of excitation-synchronized tags, narrow
	// enough to stay inside the cyclic-ambiguity distance of
	// shift-structured code families (see globalAlign). Tags delayed
	// beyond this window lose frames, which is the behaviour Fig. 11
	// measures.
	SearchChips int
	// NoiseFloorW is the receiver's noise power estimate used for SNR
	// reporting when no pre-frame quiet region is available.
	NoiseFloorW float64
	// CFARThreshold is the constant-false-alarm detection threshold on the
	// preamble matched-filter statistic |Σ x·tmpl|² / (noise·‖tmpl‖²).
	// Under noise the statistic is Exp(1)-distributed, so the false-alarm
	// probability per examined lag is e^(−T). Unlike the normalized
	// correlation, the statistic grows with the integration (preamble)
	// length, which is what makes longer preambles detectable at lower
	// SNR — the Fig. 8(c) effect. Zero selects 16 (−e⁻¹⁶ ≈ 10⁻⁷ per lag).
	CFARThreshold float64
	// SIC enables successive interference cancellation: users are decoded
	// strongest-first and each verified frame's waveform is subtracted
	// before detecting the next (see receiveSIC for when to use it).
	SIC bool
	// PhaseTracking enables decision-directed carrier-phase tracking
	// during decoding: after each bit decision the user's phasor estimate
	// is steered toward the observed correlation. Required when tags have
	// carrier/subcarrier frequency offsets (cheap oscillators): the
	// preamble phase estimate goes stale within a fraction of a frame at
	// tens of ppm. Off by default to match the paper's receiver.
	PhaseTracking bool
	// Obs, when non-nil, times the receiver phases (frame sync, user
	// detection, chip decode) into the observer's registry. Purely
	// observational: no receiver decision reads it, so decode results are
	// identical with or without it.
	Obs *obs.Observer
	// ReferenceSync selects the pre-optimization timing-acquisition path:
	// streaming moving-average energy detection, per-position window
	// rescans in refineEdge, the full-buffer envelope and the exhaustive
	// strided alignment scan over the whole uncertainty window. The
	// default fast path (prefix-sum detection, windowed envelope,
	// coarse-to-fine alignment — see align.go) reproduces the reference
	// decisions, and campaign Metrics are bit-identical across the two on
	// every covered scenario (TestRunSyncEquivalence); this knob keeps the
	// reference implementation live so that equivalence stays continuously
	// testable instead of frozen at a one-time measurement.
	ReferenceSync bool
	// ResyncFallback enables graceful re-synchronization on ReceiveAt
	// calls: when the energy detector or the fine alignment fails — deep
	// fades, mid-frame outages and interference bursts can bury the energy
	// rise — the receiver falls back to the reader's nominal reply timing
	// instead of abandoning the buffer, and still attempts user detection
	// anchored there. Result.Resynced reports the fallback fired. Off by
	// default: without faults a failed sync genuinely means no frame.
	ResyncFallback bool
}

func (c Config) withDefaults() (Config, error) {
	if c.Codes == nil || c.Codes.Size() == 0 {
		return c, ErrNoCodes
	}
	if err := c.Codes.Validate(); err != nil {
		return c, fmt.Errorf("rx: %w", err)
	}
	if c.SamplesPerChip == 0 {
		c.SamplesPerChip = 4
	}
	if c.SamplesPerChip < 1 {
		return c, errors.New("rx: samples per chip must be >= 1")
	}
	if c.SyncWindow == 0 {
		c.SyncWindow = 4 * c.Codes.ChipLength() * c.SamplesPerChip
	}
	if c.SyncThresholdDB == 0 {
		c.SyncThresholdDB = 3
	}
	if c.DetectThreshold == 0 {
		c.DetectThreshold = 0.15
	}
	if c.SearchChips == 0 {
		c.SearchChips = 1
	}
	if c.CFARThreshold == 0 {
		c.CFARThreshold = 16
	}
	if _, err := c.Frame.Preamble(); err != nil {
		return c, err
	}
	return c, nil
}

// Receiver decodes concurrent CBMA frames from a complex-baseband sample
// stream. Construct with New; a Receiver is safe for sequential reuse
// across buffers but not for concurrent use.
type Receiver struct {
	cfg Config
	// preambleTmpl[i] is code i's discriminant template for the whole
	// preamble at sample rate; bitTmpl[i] is the single-bit discriminant
	// template; sparse[i] marks PPM-style codes whose timing search uses
	// the envelope statistic (see detectUser).
	preambleTmpl [][]float64
	bitTmpl      [][]float64
	sparse       []bool
	anySparse    bool
	// chipTmpl[i] is code i's preamble discriminant at chip rate. The
	// sample templates are chip-constant (each discriminant value held for
	// SamplesPerChip samples), so the coarse alignment pass correlates
	// per-chip block sums of the envelope against these short templates
	// instead of sliding the full-rate template (see alignCoarseFine).
	chipTmpl [][]float64
	// bank holds the preamble templates with their frequency-domain images
	// precomputed, for the matched-filter fast path taken by globalAlign
	// and the detection sweep when the window is large enough (see
	// dsp.FilterBank.ShouldUseFFT).
	bank *dsp.FilterBank
	// Per-call scratch, reused across Receive calls (the reason a Receiver
	// is not safe for concurrent use): per-code correlation rows for the
	// alignment and detection sweeps, the SIC per-code detection cache,
	// remaining-code list and joint fit, and the chip-rate decimated
	// envelope of the alignment span.
	alignRows    [][]float64
	envRows      [][]float64
	cohRows      [][]complex128
	sicDets      []detSlot
	sicRemaining []int
	sicFit       sicFit
	envChips     []float64
	// sampleScratch holds the buffer-length scratch, borrowed from
	// scratchPool for one receive and empty between calls.
	sampleScratch
	// Telemetry instruments, pre-resolved at construction (nil-safe no-ops
	// without Config.Obs). Clones share them: the histograms are atomic, so
	// parallel round workers aggregate into the same phase timings.
	obs          *obs.Observer
	hSync        *obs.Histogram
	hDetect      *obs.Histogram
	hDecode      *obs.Histogram
	cResync      *obs.Counter
	cFFTFallback *obs.Counter
}

// New builds a receiver and precomputes the per-code correlation templates.
func New(cfg Config) (*Receiver, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pre, err := c.Frame.Preamble()
	if err != nil {
		return nil, err
	}
	r := &Receiver{
		cfg:          c,
		obs:          c.Obs,
		hSync:        c.Obs.Histogram("rx.phase.sync_ns"),
		hDetect:      c.Obs.Histogram("rx.phase.detect_ns"),
		hDecode:      c.Obs.Histogram("rx.phase.decode_ns"),
		cResync:      c.Obs.Counter("rx.resyncs"),
		cFFTFallback: c.Obs.Counter("rx.fft_fallbacks"),
	}
	for _, code := range c.Codes.Codes {
		disc := code.Discriminant()
		bit := upsampleFloats(disc, c.SamplesPerChip)
		r.bitTmpl = append(r.bitTmpl, bit)
		// A code is "sparse" when its active chips are a small minority —
		// the PPM-style regime where envelope timing wins (detectUser).
		r.sparse = append(r.sparse, 4*code.OnesWeight() <= code.Length())
		tmpl := make([]float64, 0, len(pre)*len(bit))
		ct := make([]float64, 0, len(pre)*len(disc))
		for _, b := range pre {
			sign := 1.0
			if b == 0 {
				sign = -1
			}
			for _, v := range bit {
				tmpl = append(tmpl, sign*v)
			}
			for _, v := range disc {
				ct = append(ct, sign*v)
			}
		}
		r.preambleTmpl = append(r.preambleTmpl, tmpl)
		r.chipTmpl = append(r.chipTmpl, ct)
	}
	for _, sp := range r.sparse {
		if sp {
			r.anySparse = true
			break
		}
	}
	bank, err := dsp.NewFilterBank(r.preambleTmpl)
	if err != nil {
		return nil, fmt.Errorf("rx: %w", err)
	}
	r.bank = bank
	return r, nil
}

// Config returns the receiver's effective (defaulted) configuration.
func (r *Receiver) Config() Config { return r.cfg }

// Clone returns a receiver that shares r's immutable template tables but
// owns its own per-call scratch, so the clone and r (and further clones)
// may run Receive concurrently on different goroutines. The clone's filter
// bank shares r's precomputed frequency-domain template spectra (guarded
// inside the bank) with its own query scratch — parallel round workers no
// longer redo the forward transforms the original already paid for.
func (r *Receiver) Clone() *Receiver {
	return &Receiver{
		cfg:          r.cfg,
		preambleTmpl: r.preambleTmpl,
		bitTmpl:      r.bitTmpl,
		sparse:       r.sparse,
		anySparse:    r.anySparse,
		chipTmpl:     r.chipTmpl,
		bank:         r.bank.Clone(),
		obs:          r.obs,
		hSync:        r.hSync,
		hDetect:      r.hDetect,
		hDecode:      r.hDecode,
		cResync:      r.cResync,
		cFFTFallback: r.cFFTFallback,
	}
}

// DecodedFrame is the per-user outcome of one receive pass.
type DecodedFrame struct {
	// TagID is the code index of the detected user.
	TagID int
	// Payload holds the decoded payload when OK.
	Payload []byte
	// OK reports whether the frame passed CRC.
	OK bool
	// Err carries the decode failure when !OK.
	Err error
	// Corr is the normalized preamble correlation at detection.
	Corr float64
	// Lag is the user's frame start in samples within the buffer.
	Lag int
	// SNRdB is the estimated per-user SNR (realized signal power over the
	// noise estimate).
	SNRdB float64
}

// Result is the outcome of Receive on one buffer.
type Result struct {
	// FrameDetected reports whether the energy detector fired at all.
	FrameDetected bool
	// CoarseStart is the energy detector's frame-start estimate;
	// GlobalStart the fine common alignment the user searches anchor to.
	CoarseStart int
	GlobalStart int
	// NoiseW is the noise power estimated from the pre-frame region (or
	// the configured floor).
	NoiseW float64
	// Resynced reports the Config.ResyncFallback path anchored this result
	// at the reader's nominal timing after sync failed.
	Resynced bool
	// Frames holds one entry per detected user.
	Frames []DecodedFrame
}

// AckIDs returns the tag IDs whose frames decoded successfully — the
// content of the broadcast ACK message (§III-B acknowledgement).
func (res Result) AckIDs() []int {
	var ids []int
	for _, f := range res.Frames {
		if f.OK {
			ids = append(ids, f.TagID)
		}
	}
	return ids
}

// Receive runs the full §III-B pipeline over one sample buffer with no
// external timing reference: the frame-start anchor is estimated from the
// energy-rise edge. See ReceiveAt for when the reader knows the reply
// timing.
func (r *Receiver) Receive(samples []complex128) (Result, error) {
	return r.receive(samples, -1)
}

// ReceiveAt is Receive with a reader-side timing hint: nominalStart is the
// sample index where the excitation source expects tag replies to begin.
// In a deployed system the reader triggers the tags, so this reference is
// physically available (compare EPC Gen2's fixed T1 reply window), and it
// is what makes a *lone* sparse-code (2NC) tag identifiable at all — such
// a tag is silent before its own chip slot, so its energy edge reveals
// only the slot, not the frame start, and every slot shift is otherwise an
// equally valid alignment under a different identity.
func (r *Receiver) ReceiveAt(samples []complex128, nominalStart int) (Result, error) {
	return r.receive(samples, nominalStart)
}

// sampleScratch is a receive's buffer-length scratch: the buffer's
// instantaneous power, its power prefix sums (every moving-window statistic
// of the fast sync path reads them in O(1)), its envelope, and the SIC
// residual and residual envelope. Every element is written before it is
// read, so a buffer handed over by another receive — of another receiver,
// possibly of another length — cannot change a result.
type sampleScratch struct {
	power       []float64
	powerPrefix []float64
	env         []float64
	sicWork     []complex128
	sicEnv      []float64
}

// scratchPool shares sample scratch across every receiver of the process:
// a campaign builds a receiver (and a clone per round worker) for each
// point, and receivers holding their own buffers for their lifetime made
// these buffers most of the bytes a short point allocated.
var scratchPool = sync.Pool{New: func() any { return new(sampleScratch) }}

func (r *Receiver) receive(samples []complex128, nominalStart int) (Result, error) {
	sc := scratchPool.Get().(*sampleScratch)
	r.sampleScratch = *sc
	res, err := r.receiveScratch(samples, nominalStart)
	*sc, r.sampleScratch = r.sampleScratch, sampleScratch{}
	scratchPool.Put(sc)
	return res, err
}

// receiveScratch is receive with the sample scratch borrowed.
func (r *Receiver) receiveScratch(samples []complex128, nominalStart int) (Result, error) {
	var res Result
	if len(samples) == 0 {
		return res, dsp.ErrEmptyInput
	}
	// The sync span covers the whole timing-acquisition phase: energy
	// detection, noise estimation and the fine global alignment.
	sp := r.obs.Start(r.hSync)
	r.power = dsp.MagSquaredInto(r.power, samples)
	power := r.power
	ref := r.cfg.ReferenceSync
	var start int
	var found bool
	if ref {
		start, found = EnergyDetect(power, r.cfg.SyncWindow, r.cfg.SyncThresholdDB, r.shortWindow())
	} else {
		r.powerPrefix = dsp.PrefixSumInto(r.powerPrefix, power)
		start, found = energyDetectPrefix(r.powerPrefix, r.cfg.SyncWindow, r.cfg.SyncThresholdDB, r.shortWindow())
	}
	resync := r.cfg.ResyncFallback && nominalStart >= 0 && nominalStart < len(samples)
	if !found {
		if !resync {
			sp.End()
			return res, nil
		}
		// Re-sync fallback: the energy rise is buried (fade, outage,
		// burst), but the reader triggered the reply window, so anchor the
		// coarse estimate at the nominal timing and press on.
		start = nominalStart
		res.Resynced = true
	}
	res.FrameDetected = found
	res.CoarseStart = start
	res.NoiseW = r.noiseEstimate(power, start)

	if ref || r.cfg.SIC {
		// The SIC loop re-derives the envelope over the whole buffer after
		// each cancellation, so a partial fill buys nothing there.
		r.env = dsp.MagnitudeInto(r.env, samples)
	} else {
		elo, ehi := r.envWindow(start, nominalStart, len(samples))
		r.env = magnitudeWindowInto(r.env, samples, elo, ehi)
	}
	env := r.env
	var globalStart int
	var ok bool
	if ref {
		globalStart, ok = r.globalAlign(env, power, start, res.NoiseW, nominalStart)
	} else {
		globalStart, ok = r.alignCoarseFine(env, power, start, res.NoiseW, nominalStart)
	}
	if !ok {
		if !resync {
			sp.End()
			return res, nil
		}
		globalStart = nominalStart
		res.Resynced = true
	}
	sp.End()
	if res.Resynced {
		r.cResync.Inc()
	}
	res.GlobalStart = globalStart
	if r.cfg.SIC {
		r.receiveSIC(samples, &res, env, globalStart)
	} else {
		res.Frames = r.detectAndDecodeAll(env, samples, globalStart, res.NoiseW)
	}
	for i := range res.Frames {
		f := &res.Frames[i]
		f.SNRdB = r.estimateSNR(power, f.Lag, r.frameExtentSamples(len(f.Payload)), res.NoiseW)
	}
	return res, nil
}

// shortWindow is the energy detector's short-term window: one bit duration,
// floored at 64 samples to keep the noise-only false-alarm rate negligible
// (see EnergyDetect).
func (r *Receiver) shortWindow() int {
	w := r.cfg.Codes.ChipLength() * r.cfg.SamplesPerChip
	if w < 64 {
		w = 64
	}
	return w
}

// envWindow bounds the envelope region the fast sync path actually reads:
// the alignment window around the coarse start widened by the user-detection
// search slack and one template length, extended to cover the reader's
// nominal window when the resync fallback may re-anchor there. Everything
// outside is zeroed, not computed — the per-sample math.Hypot over a mostly
// unread buffer was a top cost of the reference sync phase.
func (r *Receiver) envWindow(start, nominalStart, n int) (int, int) {
	tmplLen := len(r.preambleTmpl[0])
	slack := (2+r.cfg.SearchChips)*r.cfg.SamplesPerChip + r.shortWindow()
	lo := start - slack
	hi := start + slack + tmplLen
	if r.cfg.ResyncFallback && nominalStart >= 0 && nominalStart < n {
		if w := nominalStart - slack; w < lo {
			lo = w
		}
		if w := nominalStart + slack + tmplLen; w > hi {
			hi = w
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// noiseEstimate averages the power of the quiet region before the frame,
// falling back to the configured floor when the frame starts immediately.
func (r *Receiver) noiseEstimate(power []float64, start int) float64 {
	quietEnd := start - r.cfg.SamplesPerChip
	if quietEnd > 16 {
		var acc float64
		for _, p := range power[:quietEnd] {
			acc += p
		}
		return acc / float64(quietEnd)
	}
	return r.cfg.NoiseFloorW
}

// estimateSNR reports the ratio of frame-region power above noise to noise.
// The integration window is bounded to the frame's own extent
// (frameSamples) instead of running to the end of the buffer: capture
// buffers carry a deliberate post-frame noise tail, and folding the tail
// into the average biased the estimate low by the tail-to-frame duty ratio.
func (r *Receiver) estimateSNR(power []float64, lag, frameSamples int, noiseW float64) float64 {
	if lag < 0 {
		lag = 0
	}
	if lag >= len(power) || frameSamples <= 0 {
		return 0
	}
	end := lag + frameSamples
	if end > len(power) {
		end = len(power)
	}
	var acc float64
	for _, p := range power[lag:end] {
		acc += p
	}
	total := acc / float64(end-lag)
	return dsp.SNRdB(total, noiseW)
}

// frameExtentSamples is the on-air extent, in samples, of a frame carrying
// payloadBytes of payload — the integration window estimateSNR uses. A
// failed decode reports no payload, so its estimate integrates the
// header+CRC extent only; that region is still frame-dominated, which is
// what matters for an unbiased ratio.
func (r *Receiver) frameExtentSamples(payloadBytes int) int {
	bits, err := r.cfg.Frame.BitLength(payloadBytes)
	if err != nil {
		return 0
	}
	return bits * r.cfg.Codes.ChipLength() * r.cfg.SamplesPerChip
}

// upsampleFloats repeats each value factor times.
func upsampleFloats(x []float64, factor int) []float64 {
	out := make([]float64, 0, len(x)*factor)
	for _, v := range x {
		for k := 0; k < factor; k++ {
			out = append(out, v)
		}
	}
	return out
}
