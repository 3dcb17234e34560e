package dsp

import (
	"errors"
	"math/rand"
	"testing"
)

func TestDownsampleSumInto(t *testing.T) {
	x := []float64{1, 3, 5, 7, 100}
	got, err := DownsampleSumInto(nil, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 12} // trailing partial block dropped
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("got %v, want %v", got, want)
	}
	// Reuse: a larger scratch is resliced, not reallocated.
	scratch := make([]float64, 8)
	got, err = DownsampleSumInto(scratch, x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 116 || &got[0] != &scratch[0] {
		t.Errorf("scratch reuse: got %v (shared=%v)", got, len(got) > 0 && &got[0] == &scratch[0])
	}
	if _, err := DownsampleSumInto(nil, x, 0); !errors.Is(err, ErrBadFactor) {
		t.Fatalf("factor 0: err = %v, want ErrBadFactor", err)
	}
}

func TestFractionalDelayIntegerMatchesShift(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	x := randomVector(r, 30)
	fd := FractionalDelay(x, 4)
	for i := range x {
		var want complex128 // zero-filled head
		if i >= 4 {
			want = x[i-4]
		}
		if !complexAlmostEqual(fd[i], want, 1e-12) {
			t.Fatalf("sample %d: %v vs %v", i, fd[i], want)
		}
	}
}

func TestFractionalDelayZero(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	x := randomVector(r, 10)
	got := FractionalDelay(x, 0)
	for i := range x {
		if got[i] != x[i] {
			t.Fatal("zero delay must be identity")
		}
	}
	// Must be a copy, not an alias.
	got[0] = 123
	if x[0] == 123 {
		t.Fatal("FractionalDelay must not alias its input")
	}
}

func TestFractionalDelayHalfSample(t *testing.T) {
	x := []complex128{0, 2, 4, 2, 0}
	got := FractionalDelay(x, 0.5)
	// Sample i is the average of x[i] and x[i-1].
	want := []complex128{0, 1, 3, 3, 1}
	for i := range want {
		if !complexAlmostEqual(got[i], want[i], 1e-12) {
			t.Errorf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}
