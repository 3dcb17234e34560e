// Package dsp provides the complex-baseband digital signal processing
// substrate used throughout the CBMA simulator: I/Q vector arithmetic,
// filtering, correlation, a radix-2 FFT, resampling and tone detection.
//
// All routines operate on []complex128 sample vectors. The package has no
// internal state and no global configuration; every function is a pure
// transformation so callers can compose them freely and deterministically.
package dsp

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrEmptyInput is returned by routines that cannot operate on a zero-length
// sample vector.
var ErrEmptyInput = errors.New("dsp: empty input")

// ErrLengthMismatch is returned when two vectors that must have equal length
// do not.
var ErrLengthMismatch = errors.New("dsp: length mismatch")

// Add returns the element-wise sum a + b. Both inputs must have the same
// length.
func Add(a, b []complex128) ([]complex128, error) {
	if len(a) != len(b) {
		return nil, ErrLengthMismatch
	}
	out := make([]complex128, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// AccumulateInto adds src into dst element-wise, in place, without
// allocating. dst and src must have equal length.
//
//cbma:hotpath
func AccumulateInto(dst, src []complex128) error {
	if len(dst) != len(src) {
		return ErrLengthMismatch
	}
	for i := range src {
		dst[i] += src[i]
	}
	return nil
}

// Scale returns a copy of x with every sample multiplied by the complex
// gain g.
func Scale(x []complex128, g complex128) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] * g
	}
	return out
}

// ScaleInto multiplies every sample of x by g in place.
//
//cbma:hotpath
func ScaleInto(x []complex128, g complex128) {
	for i := range x {
		x[i] *= g
	}
}

// Conj returns the element-wise complex conjugate of x.
func Conj(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = cmplx.Conj(x[i])
	}
	return out
}

// Magnitude returns |x[i]| for every sample.
func Magnitude(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		out[i] = cmplx.Abs(x[i])
	}
	return out
}

// MagSquared returns |x[i]|² for every sample. It avoids the square root of
// Magnitude and is the preferred instantaneous-power estimate.
func MagSquared(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		out[i] = re*re + im*im
	}
	return out
}

// MagnitudeInto writes |x[i]| into dst, growing it as needed, and returns
// the filled slice. Receivers reuse one buffer across calls through this.
//
//cbma:hotpath
func MagnitudeInto(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := range x {
		// math.Hypot matches cmplx.Abs bit-for-bit, so a receiver switching
		// from Magnitude to this in-place form sees identical envelopes.
		dst[i] = math.Hypot(real(x[i]), imag(x[i]))
	}
	return dst
}

// MagSquaredInto is MagnitudeInto for instantaneous power |x[i]|².
//
//cbma:hotpath
func MagSquaredInto(dst []float64, x []complex128) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		dst[i] = re*re + im*im
	}
	return dst
}

// DotConj returns the inner product Σ a[i]·conj(b[i]). It is the core
// primitive of correlation-based detection.
func DotConj(a, b []complex128) (complex128, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	var acc complex128
	for i := range a {
		acc += a[i] * cmplx.Conj(b[i])
	}
	return acc, nil
}

// DotReal returns the real-valued inner product Σ a[i]·b[i] of two real
// vectors.
func DotReal(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, ErrLengthMismatch
	}
	var acc float64
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// Energy returns the total energy Σ |x[i]|² of the vector.
func Energy(x []complex128) float64 {
	var acc float64
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		acc += re*re + im*im
	}
	return acc
}

// MeanPower returns the average per-sample power of x, or 0 for an empty
// vector.
func MeanPower(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// RMS returns the root-mean-square amplitude of x.
func RMS(x []complex128) float64 {
	return math.Sqrt(MeanPower(x))
}

// Normalize returns a copy of x scaled to unit RMS. A zero vector is
// returned unchanged.
func Normalize(x []complex128) []complex128 {
	r := RMS(x)
	if r == 0 {
		out := make([]complex128, len(x))
		copy(out, x)
		return out
	}
	return Scale(x, complex(1/r, 0))
}

// Rotate returns x multiplied by the unit phasor e^{jθ}.
func Rotate(x []complex128, theta float64) []complex128 {
	return Scale(x, cmplx.Exp(complex(0, theta)))
}

// MixTone multiplies x by a complex exponential of normalized frequency
// f (cycles per sample) and initial phase phase, i.e. a digital
// down/up-conversion by f.
func MixTone(x []complex128, f, phase float64) []complex128 {
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)+phase))
	}
	return out
}

// Tone synthesizes n samples of a unit-amplitude complex exponential at
// normalized frequency f (cycles per sample) with initial phase phase.
func Tone(n int, f, phase float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)+phase))
	}
	return out
}

// ArgMaxFloat returns the index of the maximum element of x, and that
// maximum. It returns an error for empty input.
func ArgMaxFloat(x []float64) (int, float64, error) {
	if len(x) == 0 {
		return 0, 0, ErrEmptyInput
	}
	best, bestV := 0, x[0]
	for i, v := range x[1:] {
		if v > bestV {
			best, bestV = i+1, v
		}
	}
	return best, bestV, nil
}

// MaxAbs returns the largest |x[i]| of the vector, or 0 for empty input.
func MaxAbs(x []complex128) float64 {
	var m float64
	for i := range x {
		if a := cmplx.Abs(x[i]); a > m {
			m = a
		}
	}
	return m
}
