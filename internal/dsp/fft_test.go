package dsp

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
)

var errNotPowerOfTwo = errors.New("dsp: FFT length must be a power of two")

// FFT and IFFT run the filter bank's transform plan on a copy of x, so the
// tests below check the plans every frequency-domain correlation uses.
// IFFT includes the 1/N scaling.
func FFT(x []complex128) ([]complex128, error) { return fft(x, false) }

func IFFT(x []complex128) ([]complex128, error) { return fft(x, true) }

func fft(x []complex128, inverse bool) ([]complex128, error) {
	n := len(x)
	if !isPowerOfTwo(n) {
		return nil, errNotPowerOfTwo
	}
	out := make([]complex128, n)
	copy(out, x)
	p := planFor(n)
	if inverse {
		p.inverseInPlace(out)
	} else {
		p.forwardInPlace(out)
	}
	return out, nil
}

// isPowerOfTwo is the transform-length guard: the powers of two are
// exactly the positive fixed points of NextPowerOfTwo.
func isPowerOfTwo(n int) bool { return n > 0 && NextPowerOfTwo(n) == n }

func TestIsPowerOfTwo(t *testing.T) {
	tests := []struct {
		n    int
		want bool
	}{
		{0, false}, {1, true}, {2, true}, {3, false}, {4, true},
		{1023, false}, {1024, true}, {-4, false},
	}
	for _, tc := range tests {
		if got := isPowerOfTwo(tc.n); got != tc.want {
			t.Errorf("isPowerOfTwo(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024},
	}
	for _, tc := range tests {
		if got := NextPowerOfTwo(tc.n); got != tc.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := FFT(make([]complex128, 3)); err != errNotPowerOfTwo {
		t.Fatalf("got err %v, want errNotPowerOfTwo", err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	f, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		if !complexAlmostEqual(v, 1, 1e-12) {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A tone at bin k concentrates all energy in that bin.
	const n, k = 64, 5
	x := Tone(n, float64(k)/n, 0)
	f, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		mag := cmplx.Abs(v)
		if i == k {
			if !almostEqual(mag, n, 1e-9) {
				t.Errorf("bin %d magnitude %v, want %d", i, mag, n)
			}
		} else if mag > 1e-9 {
			t.Errorf("bin %d magnitude %v, want ~0", i, mag)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 16, 128, 1024} {
		x := randomVector(r, n)
		f, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := IFFT(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !complexAlmostEqual(back[i], x[i], 1e-9) {
				t.Fatalf("n=%d sample %d: %v != %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	x := randomVector(r, 256)
	f, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	// Parseval: Σ|x|² = (1/N) Σ|X|².
	if !almostEqual(Energy(x), Energy(f)/256, 1e-6) {
		t.Errorf("Parseval violated: time %v vs freq %v", Energy(x), Energy(f)/256)
	}
}

func TestFFTLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := randomVector(r, 64)
	b := randomVector(r, 64)
	sum := make([]complex128, len(a))
	for i := range a {
		sum[i] = a[i] + b[i]
	}
	fa, _ := FFT(a)
	fb, _ := FFT(b)
	fsum, _ := FFT(sum)
	for i := range fsum {
		if !complexAlmostEqual(fsum[i], fa[i]+fb[i], 1e-9) {
			t.Fatalf("bin %d: FFT not linear", i)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	r := rand.New(rand.NewSource(99))
	x := randomVector(r, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}
