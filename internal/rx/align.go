package rx

import (
	"math"

	"cbma/internal/dsp"
)

// This file is the receiver's fine timing acquisition: a prefix-sum edge
// refiner and a coarse-to-fine alignment over the lag×code score. The
// exhaustive strided scan it prunes, with the streaming energy detector and
// the per-position edge rescan, lives in the rx tests as the oracle
// (referenceReceive); the two make identical decisions on every covered
// scenario (TestSyncEquivalenceReceive).

// magnitudeWindowInto fills dst[lo:hi] with |x| — the same math.Hypot
// arithmetic as dsp.MagnitudeInto, so filled samples are bit-identical with
// a full fill — and zeroes the rest, keeping reused scratch deterministic.
//
//cbma:hotpath
func magnitudeWindowInto(dst []float64, x []complex128, lo, hi int) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := 0; i < lo; i++ {
		dst[i] = 0
	}
	for i := lo; i < hi; i++ {
		dst[i] = math.Hypot(real(x[i]), imag(x[i]))
	}
	for i := hi; i < len(dst); i++ {
		dst[i] = 0
	}
	return dst
}

// refineEdgePrefix locates the frame's energy-rise edge to within a chip or
// two: the first sample at or after the (back-dated) coarse start whose
// 16-sample window of power clears 3× the noise estimate, pinned to the
// first sample inside it that clears 6×. It falls back to the coarse start
// when nothing clears the bar (very low SNR). Window sums come from the
// O(1) prefix-sum array r.powerPrefix, built once per buffer by receive.
//
//cbma:hotpath
func (r *Receiver) refineEdgePrefix(power []float64, coarse int, noiseW float64) int {
	// A 16-sample window at 3× the noise floor keeps the false-fire
	// probability per position below 1e-6 (Chernoff), so the edge cannot
	// anchor on a noise fluctuation ahead of the frame.
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
	p := r.powerPrefix
	for j := lo; j <= hi; j++ {
		if p[j+win]-p[j] <= thresh {
			continue
		}
		// The window triggers as soon as it overlaps the frame, up to
		// win−1 samples early; locate the first individual sample that
		// clears the floor decisively to pin the edge within ~a sample.
		for k := 0; k < win; k++ {
			if power[j+k] > 6*noiseW {
				return j + k
			}
		}
		return j + win/2
	}
	return coarse
}

// alignScoreAt is the alignment score at one lag: the summed
// positive-polarity preamble correlation across every code (dsp.DotReal per
// code), weighted by the soft edge prior 1/(1+d²).
//
//cbma:hotpath
func (r *Receiver) alignScoreAt(env []float64, lag, edge int) float64 {
	tmplLen := len(r.preambleTmpl[0])
	var sum float64
	for id := range r.preambleTmpl {
		c, err := dsp.DotReal(env[lag:lag+tmplLen], r.preambleTmpl[id])
		if err != nil {
			return 0
		}
		if c > 0 {
			sum += c * c
		}
	}
	d := float64(lag-edge) / float64(4*r.cfg.SamplesPerChip)
	return sum * (1 / (1 + d*d))
}

// scanStride evaluates alignScoreAt on the strided lag grid anchored at
// gridLo, over the grid points falling inside [from, to], carrying the
// running best forward. Lags iterate ascending and ties keep the earlier
// lag (strict >).
//
//cbma:hotpath
func (r *Receiver) scanStride(env []float64, gridLo, stride, from, to, edge, bestLag int, bestScore float64) (int, float64) {
	if from < gridLo {
		from = gridLo
	}
	if d := (from - gridLo) % stride; d != 0 {
		from += stride - d
	}
	for lag := from; lag <= to; lag += stride {
		if s := r.alignScoreAt(env, lag, edge); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	return bestLag, bestScore
}

// refineSample is the final sample-resolution pass around the strided
// winner.
//
//cbma:hotpath
func (r *Receiver) refineSample(env []float64, lo, hi, stride, edge, bestLag int, bestScore float64) (int, bool) {
	rlo, rhi := bestLag-stride+1, bestLag+stride-1
	if rlo < lo {
		rlo = lo
	}
	if rhi > hi {
		rhi = hi
	}
	for lag := rlo; lag <= rhi; lag++ {
		if s := r.alignScoreAt(env, lag, edge); s > bestScore {
			bestLag, bestScore = lag, s
		}
	}
	return bestLag, bestScore > 0
}

// alignCoarseFine estimates the fine frame start common to the colliding
// tags by maximizing the summed positive-polarity preamble correlation
// across every code in the deployment over the energy detector's
// uncertainty window.
//
// Alignment and user detection run on the magnitude envelope — exactly the
// P(t) = √(I²+Q²) statistic the paper's receiver computes — rather than on
// the complex baseband, for two reasons. First, the envelope has no phase
// ambiguity, so the alternating 1010… preamble keeps its polarity: a
// one-bit-shifted (inverted) alignment correlates negatively and is
// rejected, where a coherent magnitude metric could not tell it apart from a
// π-rotated channel. Second, a single shared alignment is essential for
// shift-structured code families: 2NC codes are cyclic shifts of one
// another, so tag j's entire waveform equals tag i's shifted by 2(j−i)
// chips, and a per-user search wide enough to absorb the energy detector's
// back-dating would lock code i onto tag j's frame. Because CBMA tags are
// frame-synchronized by the shared excitation source to within a fraction
// of a chip (the damage beyond that is what Fig. 11 measures), every active
// user peaks at nearly the same lag — and the summed metric peaks where all
// of them agree, while any shift-impostor alignment only ever matches a
// subset.
//
// The correlation score is weighted by a soft prior centered on the
// refined energy-rise edge (refineEdgePrefix), or on the reader's nominal
// start when one is given. The edge is the one *absolute* timing anchor the
// physics provides: for a shift-structured family with a single active tag
// the correlation landscape is perfectly periodic (one code matches at
// every slot shift), and without the edge prior the alignment — and
// therefore the tag's identity — would be picked uniformly at random among
// the shifts. The prior is gentle enough (half weight at four chips) that a
// genuine multi-tag correlation peak still dominates when the edge estimate
// is noisy.
//
// The exhaustive search scores every lag of the window at half-chip stride
// and then refines to sample resolution around the winner. This function
// prunes it coarse-to-fine. The preamble templates are chip-constant — each
// sample template repeats one discriminant value SamplesPerChip times — so
// at chip-aligned lags the full correlation collapses to a chip-rate
// correlation of the envelope's per-chip block sums (integrate-and-dump)
// against templates SamplesPerChip times shorter. The coarse pass scores
// every chip-aligned lag at 1/spc² of the exhaustive cost, and only the
// basins around the two best chip cells (plus the edge prior's cell) are
// rescored exactly on the strided grid, followed by the same
// sample-resolution refinement. The result matches the exhaustive scan
// whenever its winner's basin is among the candidates, which holds on
// every scenario the rx tests cover: the correlation peak decays within one
// chip, so its cell (or a neighbour, also scanned) usually dominates the
// chip-rate landscape. It is not guaranteed; DESIGN.md records a round
// where the candidates miss. The exhaustive scan is the oracle in the rx
// tests.
//
// Windows too narrow to prune — or spc == 1, where chip rate is sample
// rate — run the exhaustive strided scan directly.
//
//cbma:hotpath
func (r *Receiver) alignCoarseFine(env []float64, power []float64, coarse int, noiseW float64, nominalStart int) (int, bool) {
	tmplLen := len(r.preambleTmpl[0])
	spc := r.cfg.SamplesPerChip
	slack := spc * 2
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
	stride := spc / 2
	if stride < 1 {
		stride = 1
	}
	edge := nominalStart
	if edge < 0 {
		edge = r.refineEdgePrefix(power, coarse, noiseW)
	}
	if spc < 2 || hi-lo <= 4*spc {
		bestLag, bestScore := r.scanStride(env, lo, stride, lo, hi, edge, lo, -1.0)
		return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
	}

	// Coarse pass: decimate the alignment span to chip rate and correlate
	// against the chip-rate templates. Scores at chip-aligned lags equal
	// the exact scores there up to floating-point association.
	span := env[lo : hi+tmplLen]
	chips, err := dsp.DownsampleSumInto(r.envChips, span, spc)
	if err != nil {
		// Unreachable (spc ≥ 2), but degrade to the exhaustive scan rather
		// than mis-align.
		bestLag, bestScore := r.scanStride(env, lo, stride, lo, hi, edge, lo, -1.0)
		return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
	}
	r.envChips = chips
	nChips := len(r.chipTmpl[0])
	cMax := (hi - lo) / spc
	if m := len(chips) - nChips; cMax > m {
		cMax = m
	}
	best1, best2 := -1, -1
	s1, s2 := 0.0, 0.0
	for c := 0; c <= cMax; c++ {
		var sum float64
		seg := chips[c:]
		for id := range r.chipTmpl {
			t := r.chipTmpl[id]
			var acc float64
			for k, v := range t {
				acc += seg[k] * v
			}
			if acc > 0 {
				sum += acc * acc
			}
		}
		if sum <= 0 {
			continue
		}
		d := float64(lo+c*spc-edge) / float64(4*spc)
		sum *= 1 / (1 + d*d)
		if best1 < 0 || sum > s1 {
			best1, best2 = c, best1
			s1, s2 = sum, s1
		} else if best2 < 0 || sum > s2 {
			best2, s2 = c, sum
		}
	}
	if best1 < 0 {
		// No chip cell carries positive-polarity correlation — essentially
		// a noise-only window, where a sample-grid peak could still hide
		// between cells. Fall back to the exhaustive scan.
		bestLag, bestScore := r.scanStride(env, lo, stride, lo, hi, edge, lo, -1.0)
		return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
	}

	// Candidate basins: the two best chip cells plus the edge prior's cell,
	// each widened by one chip either side, rescored exactly on the
	// strided grid in ascending lag order (so ties break as in the
	// exhaustive scan) without double-visiting overlap.
	ec := edge
	if ec < lo {
		ec = lo
	}
	if ec > hi {
		ec = hi
	}
	ec = (ec - lo) / spc
	if ec > cMax {
		ec = cMax
	}
	var cand [3]int
	nc := 0
	cand[nc] = best1
	nc++
	if best2 >= 0 && best2 != best1 {
		cand[nc] = best2
		nc++
	}
	if ec != best1 && ec != best2 {
		cand[nc] = ec
		nc++
	}
	// Insertion-sort the (≤3) cells ascending.
	for i := 1; i < nc; i++ {
		for j := i; j > 0 && cand[j] < cand[j-1]; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	bestLag, bestScore := lo, -1.0
	covered := lo - 1
	for i := 0; i < nc; i++ {
		center := lo + cand[i]*spc
		from, to := center-spc, center+spc
		if from <= covered {
			from = covered + 1
		}
		if to > hi {
			to = hi
		}
		if from > to {
			continue
		}
		bestLag, bestScore = r.scanStride(env, lo, stride, from, to, edge, bestLag, bestScore)
		covered = to
	}
	return r.refineSample(env, lo, hi, stride, edge, bestLag, bestScore)
}
