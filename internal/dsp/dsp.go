// Package dsp provides the signal-processing kernels the CBMA simulator
// runs: power and envelope of complex-baseband samples, dot products,
// prefix and block sums, the linear-interpolation fractional delay, dB
// conversions, and a matched-filter bank with a frequency-domain fast path
// on a radix-2 FFT.
//
// Apart from the FFT plan cache every routine is a pure transformation, so
// callers can compose them freely and deterministically.
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
		// math.Hypot is the arithmetic of cmplx.Abs, bit for bit.
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

// Energy returns the total energy Σ |x[i]|² of the vector. Energy,
// MeanPower and Tone have no caller in the simulator; tests of the channel
// models and of the FFT use them as oracles.
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

// Tone synthesizes n samples of a unit-amplitude complex exponential at
// normalized frequency f (cycles per sample) with initial phase phase.
func Tone(n int, f, phase float64) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)+phase))
	}
	return out
}
