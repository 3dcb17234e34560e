package dsp

import "errors"

// ErrBadFactor is returned for non-positive resampling factors.
var ErrBadFactor = errors.New("dsp: resampling factor must be >= 1")

// ErrBadOffset is returned for negative sampling offsets.
var ErrBadOffset = errors.New("dsp: sampling offset must be >= 0")

// UpsampleHold repeats every input sample factor times (zero-order hold).
// This models the tag's upsampling block: the FPGA holds each data bit for
// an integer number of subcarrier periods (§VI, Eq. 3).
func UpsampleHold(x []complex128, factor int) ([]complex128, error) {
	if factor < 1 {
		return nil, ErrBadFactor
	}
	out := make([]complex128, len(x)*factor)
	for i := range x {
		base := i * factor
		for k := 0; k < factor; k++ {
			out[base+k] = x[i]
		}
	}
	return out, nil
}

// UpsampleHoldBits is UpsampleHold for bit vectors (0/1), used on the tag's
// chip stream before the AND with the square wave.
func UpsampleHoldBits(bits []byte, factor int) ([]byte, error) {
	if factor < 1 {
		return nil, ErrBadFactor
	}
	out := make([]byte, len(bits)*factor)
	for i, b := range bits {
		base := i * factor
		for k := 0; k < factor; k++ {
			out[base+k] = b
		}
	}
	return out, nil
}

// Downsample keeps every factor-th sample starting at offset. The CBMA
// receiver downsamples after computing the power envelope because its
// sampling rate exceeds the chip rate (§V-B).
func Downsample(x []complex128, factor, offset int) ([]complex128, error) {
	if factor < 1 {
		return nil, ErrBadFactor
	}
	if offset < 0 {
		return nil, ErrBadOffset
	}
	if offset >= len(x) {
		return nil, nil
	}
	n := (len(x) - offset + factor - 1) / factor
	out := make([]complex128, 0, n)
	for i := offset; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out, nil
}

// DownsampleMean averages each consecutive block of factor samples —
// an integrate-and-dump matched to rectangular chips, which is what a
// correlation receiver effectively does per chip.
func DownsampleMean(x []float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, ErrBadFactor
	}
	n := len(x) / factor
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		base := i * factor
		for k := 0; k < factor; k++ {
			acc += x[base+k]
		}
		out[i] = acc / float64(factor)
	}
	return out, nil
}

// DownsampleSumInto writes the consecutive block sums of x — factor samples
// per block, the trailing partial block dropped — into dst, growing it only
// when its capacity is short. It is the allocation-free, unnormalized form
// of DownsampleMean: an integrate-and-dump to chip rate, which is what the
// receiver's coarse alignment pass runs its decimated correlations on.
//
//cbma:hotpath
func DownsampleSumInto(dst, x []float64, factor int) ([]float64, error) {
	if factor < 1 {
		return nil, ErrBadFactor
	}
	n := len(x) / factor
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		var acc float64
		base := i * factor
		for k := 0; k < factor; k++ {
			acc += x[base+k]
		}
		dst[i] = acc
	}
	return dst, nil
}

// FractionalDelay delays x by d samples (d may be fractional and ≥ 0) using
// linear interpolation, padding the head with zeros. The simulator uses it
// to realize per-tag asynchronous clock offsets that are not sample-aligned.
func FractionalDelay(x []complex128, d float64) []complex128 {
	if d <= 0 {
		out := make([]complex128, len(x))
		copy(out, x)
		return out
	}
	whole := int(d)
	frac := d - float64(whole)
	out := make([]complex128, len(x))
	for i := range out {
		j := i - whole
		// Linearly interpolate between x[j-1] and x[j] with weight frac.
		var a, b complex128
		if j-1 >= 0 && j-1 < len(x) {
			a = x[j-1]
		}
		if j >= 0 && j < len(x) {
			b = x[j]
		}
		out[i] = LerpDelay(b, a, frac)
	}
	return out
}

// LerpDelay is one output sample of the linear-interpolation delay: the
// current input sample x and its predecessor prev weighted by 1−d and d.
// FractionalDelay, FractionalDelayInPlace and the simulator's fused mixing
// kernel all evaluate this one expression, so they round identically.
func LerpDelay(x, prev complex128, d float64) complex128 {
	return x*complex(1-d, 0) + prev*complex(d, 0)
}

// FractionalDelayInPlace applies a purely sub-sample delay (0 ≤ d < 1) to x
// in place — the allocation-free form of FractionalDelay for callers that
// have already split off the whole-sample part. The backward iteration
// reads x[i] and x[i−1] before x[i] is overwritten, so no scratch is
// needed, and the arithmetic matches FractionalDelay exactly.
//
//cbma:hotpath
func FractionalDelayInPlace(x []complex128, d float64) {
	if d <= 0 {
		return
	}
	for i := len(x) - 1; i >= 0; i-- {
		var a complex128
		if i > 0 {
			a = x[i-1]
		}
		x[i] = LerpDelay(x[i], a, d)
	}
}

// ShiftInt delays (d > 0) or advances (d < 0) x by an integer number of
// samples, zero-filling the vacated positions. The output has the same
// length as the input.
func ShiftInt(x []complex128, d int) []complex128 {
	out := make([]complex128, len(x))
	for i := range out {
		j := i - d
		if j >= 0 && j < len(x) {
			out[i] = x[j]
		}
	}
	return out
}
