package rx

import (
	"math"

	"cbma/internal/dsp"
)

// This file is the timing-acquisition oracle: the receiver's original,
// unoptimized sync chain. It computes every moving window sample by sample
// and scans every alignment lag, so it shares no shortcut with the
// prefix-sum detector, the windowed envelope or the coarse-to-fine
// alignment that Receive runs. The sync tests require the two to make
// identical decisions.

// movingAverager is a streaming moving-average filter over the last w
// pushed samples (fewer while the window fills).
type movingAverager struct {
	buf  []float64
	head int
	n    int
	acc  float64
}

func newMovingAverager(w int) *movingAverager {
	if w < 1 {
		w = 1
	}
	return &movingAverager{buf: make([]float64, w)}
}

// push feeds one sample and returns the current windowed mean.
func (m *movingAverager) push(v float64) float64 {
	if m.n == len(m.buf) {
		m.acc -= m.buf[m.head]
	} else {
		m.n++
	}
	m.buf[m.head] = v
	m.acc += v
	m.head = (m.head + 1) % len(m.buf)
	return m.acc / float64(m.n)
}

// EnergyDetect is the streaming form of energyDetectPrefix's comparator:
// two moving averagers and a delay line one short window long feeding the
// long-term reference. It is exported for the external fuzz target.
func EnergyDetect(power []float64, longWindow int, thresholdDB float64, shortWindow int) (start int, found bool) {
	if len(power) == 0 {
		return 0, false
	}
	if longWindow < 2 {
		longWindow = 2
	}
	if shortWindow < 1 {
		shortWindow = 1
	}
	factor := dsp.FromDB(thresholdDB)
	long := newMovingAverager(longWindow)
	short := newMovingAverager(shortWindow)
	delay := make([]float64, shortWindow)
	var longVal float64
	warmup := shortWindow
	if warmup > len(power) {
		warmup = len(power)
	}
	for i := 0; i < warmup; i++ {
		longVal = long.push(power[i])
		short.push(power[i])
		delay[i%shortWindow] = power[i]
	}
	for i := warmup; i < len(power); i++ {
		s := short.push(power[i])
		if longVal > 0 && s > factor*longVal {
			return backdateStart(i, shortWindow), true
		}
		longVal = long.push(delay[i%shortWindow])
		delay[i%shortWindow] = power[i]
	}
	return 0, false
}

// refineEdge is refineEdgePrefix with every 16-sample window summed afresh.
func (r *Receiver) refineEdge(power []float64, coarse int, noiseW float64) int {
	const win = 16
	lo := coarse - r.cfg.SamplesPerChip
	if lo < 0 {
		lo = 0
	}
	hi := coarse + r.shortWindow() + 2*r.cfg.SamplesPerChip
	if hi+win > len(power) {
		hi = len(power) - win
	}
	if noiseW <= 0 || hi < lo {
		return coarse
	}
	thresh := 3 * noiseW * win
	for j := lo; j <= hi; j++ {
		var acc float64
		for k := 0; k < win; k++ {
			acc += power[j+k]
		}
		if acc <= thresh {
			continue
		}
		for k := 0; k < win; k++ {
			if power[j+k] > 6*noiseW {
				return j + k
			}
		}
		return j + win/2
	}
	return coarse
}

// globalAlign is the exhaustive alignment alignCoarseFine prunes: every lag
// of the uncertainty window at half-chip stride, then sample resolution
// around the winner, scoring each lag by direct per-code dot products.
func (r *Receiver) globalAlign(env []float64, power []float64, coarse int, noiseW float64, nominalStart int) (int, bool) {
	tmplLen := len(r.preambleTmpl[0])
	slack := r.cfg.SamplesPerChip * 2
	lo := coarse - slack
	if lo < 0 {
		lo = 0
	}
	hi := coarse + r.shortWindow() + slack
	if hi+tmplLen > len(env) {
		hi = len(env) - tmplLen
	}
	if hi < lo {
		return 0, false
	}
	stride := r.cfg.SamplesPerChip / 2
	if stride < 1 {
		stride = 1
	}
	edge := nominalStart
	if edge < 0 {
		edge = r.refineEdge(power, coarse, noiseW)
	}
	score := func(lag int) float64 {
		var sum float64
		for id := range r.preambleTmpl {
			c, err := dsp.DotReal(env[lag:lag+tmplLen], r.preambleTmpl[id])
			if err != nil {
				return 0
			}
			if c > 0 { // only positive polarity is a valid preamble
				sum += c * c
			}
		}
		d := float64(lag-edge) / float64(4*r.cfg.SamplesPerChip)
		return sum * (1 / (1 + d*d))
	}
	bestLag, bestScore := lo, -1.0
	for lag := lo; lag <= hi; lag += stride {
		if s := score(lag); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	rlo, rhi := bestLag-stride+1, bestLag+stride-1
	if rlo < lo {
		rlo = lo
	}
	if rhi > hi {
		rhi = hi
	}
	for lag := rlo; lag <= rhi; lag++ {
		if s := score(lag); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	return bestLag, bestScore > 0
}

// referenceReceive is ReceiveAt (Receive when nominalStart < 0) with the
// oracle sync chain: streaming energy detection, the envelope of the whole
// buffer and the exhaustive alignment, followed by the same detection,
// decoding and SNR estimation as the receiver.
func (r *Receiver) referenceReceive(samples []complex128, nominalStart int) (Result, error) {
	var res Result
	if len(samples) == 0 {
		return res, dsp.ErrEmptyInput
	}
	power := dsp.MagSquaredInto(nil, samples)
	start, found := EnergyDetect(power, r.cfg.SyncWindow, r.cfg.SyncThresholdDB, r.shortWindow())
	resync := r.cfg.ResyncFallback && nominalStart >= 0 && nominalStart < len(samples)
	if !found {
		if !resync {
			return res, nil
		}
		start = nominalStart
		res.Resynced = true
	}
	res.FrameDetected = found
	res.CoarseStart = start
	res.NoiseW = r.noiseEstimate(power, start)
	env := make([]float64, len(samples))
	for i, v := range samples {
		env[i] = math.Hypot(real(v), imag(v))
	}
	globalStart, ok := r.globalAlign(env, power, start, res.NoiseW, nominalStart)
	if !ok {
		if !resync {
			return res, nil
		}
		globalStart = nominalStart
		res.Resynced = true
	}
	r.decode(samples, power, env, globalStart, &res)
	return res, nil
}
