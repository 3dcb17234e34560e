package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

const floatTol = 1e-9

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func complexAlmostEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func randomVector(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return out
}

func TestMagnitudeAndMagSquared(t *testing.T) {
	x := []complex128{3 + 4i, 0, -1i}
	mag := MagnitudeInto(nil, x)
	if !almostEqual(mag[0], 5, floatTol) || mag[1] != 0 || !almostEqual(mag[2], 1, floatTol) {
		t.Errorf("MagnitudeInto = %v", mag)
	}
	if mag[0] != cmplx.Abs(x[0]) {
		t.Errorf("MagnitudeInto[0] = %v, cmplx.Abs = %v: must match bit for bit", mag[0], cmplx.Abs(x[0]))
	}
	sq := MagSquaredInto(nil, x)
	if !almostEqual(sq[0], 25, floatTol) {
		t.Errorf("MagSquaredInto[0] = %v, want 25", sq[0])
	}
	// Scratch reuse: adequate capacity is resliced in place.
	scratch := make([]float64, 8)
	if got := MagnitudeInto(scratch, x); len(got) != len(x) || &got[0] != &scratch[0] {
		t.Error("MagnitudeInto reallocated adequate scratch")
	}
	if got := MagSquaredInto(scratch, x); len(got) != len(x) || &got[0] != &scratch[0] {
		t.Error("MagSquaredInto reallocated adequate scratch")
	}
}

func TestMagSquaredMatchesMagnitude(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	x := randomVector(r, 64)
	mag := MagnitudeInto(nil, x)
	sq := MagSquaredInto(nil, x)
	for i := range x {
		if !almostEqual(sq[i], mag[i]*mag[i], 1e-9) {
			t.Fatalf("sample %d: |x|²=%v but |x|·|x|=%v", i, sq[i], mag[i]*mag[i])
		}
	}
}

func TestDotRealKnown(t *testing.T) {
	got, err := DotReal([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("DotReal = %v, want 32", got)
	}
	if _, err := DotReal([]float64{1}, nil); err != ErrLengthMismatch {
		t.Errorf("got err %v, want ErrLengthMismatch", err)
	}
}

func TestMeanPowerEmpty(t *testing.T) {
	if got := MeanPower(nil); got != 0 {
		t.Errorf("MeanPower(nil) = %v, want 0", got)
	}
}

func TestToneUnitAmplitudeAndFrequency(t *testing.T) {
	const n = 64
	const f = 0.25 // quarter cycle per sample
	x := Tone(n, f, 0)
	for i, v := range x {
		if !almostEqual(cmplx.Abs(v), 1, floatTol) {
			t.Fatalf("sample %d magnitude %v, want 1", i, cmplx.Abs(v))
		}
	}
	// At f=0.25 the tone advances 90° per sample: x[1] should be ~j.
	if !complexAlmostEqual(x[1], 1i, 1e-9) {
		t.Errorf("x[1] = %v, want i", x[1])
	}
}

func TestEnergyAdditivityProperty(t *testing.T) {
	// Energy of concatenation equals sum of energies.
	r := rand.New(rand.NewSource(5))
	a := randomVector(r, 31)
	b := randomVector(r, 17)
	cat := append(append([]complex128{}, a...), b...)
	if !almostEqual(Energy(cat), Energy(a)+Energy(b), 1e-9) {
		t.Error("energy must be additive over concatenation")
	}
}
