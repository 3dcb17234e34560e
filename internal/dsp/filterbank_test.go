package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// equivTol is the acceptance tolerance between the direct and FFT
// correlation paths, relative to the largest output magnitude.
const equivTol = 1e-9

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		// Random amplitude and phase so the FFT path is exercised off the
		// real axis.
		a := rng.Float64() * 2
		phi := rng.Float64() * 2 * math.Pi
		out[i] = complex(a*math.Cos(phi), a*math.Sin(phi))
	}
	return out
}

func randReal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*4 - 2
	}
	return out
}

func maxMagC(x []complex128) float64 {
	var m float64
	for _, v := range x {
		if a := cmplx.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func TestCrossCorrelateKnown(t *testing.T) {
	fb, err := NewFilterBank([][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	x := []complex128{0, 0, 1, 1i, 0}
	rows := [][]complex128{make([]complex128, 4)}
	if err := fb.CorrelateAll(x, 0, 4, nil, rows); err != nil {
		t.Fatal(err)
	}
	want := []complex128{0, 1, 1 + 1i, 1i}
	for k := range want {
		if rows[0][k] != want[k] {
			t.Errorf("lag %d: %v, want %v", k, rows[0][k], want[k])
		}
	}
}

func TestCrossCorrelateTemplateTooLong(t *testing.T) {
	fb, err := NewFilterBank([][]float64{{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]complex128{make([]complex128, 1)}
	if err := fb.CorrelateAll(make([]complex128, 2), 0, 1, nil, rows); err != ErrLengthMismatch {
		t.Fatalf("template longer than input: err %v, want ErrLengthMismatch", err)
	}
	if _, err := NewFilterBank([][]float64{{}}); err != ErrEmptyInput {
		t.Fatalf("empty template: err %v, want ErrEmptyInput", err)
	}
}

// TestCrossCorrelateFFTDegenerate requires the degenerate shapes to fail on
// a bank sized for the frequency-domain path, for complex and real input
// alike, without writing into the caller's rows.
func TestCrossCorrelateFFTDegenerate(t *testing.T) {
	if _, err := NewFilterBank([][]float64{nil}); err != ErrEmptyInput {
		t.Errorf("empty template: err %v, want ErrEmptyInput", err)
	}
	long := make([][]float64, 8)
	for i := range long {
		long[i] = make([]float64, 4096)
		long[i][0] = 1
	}
	fb, err := NewFilterBank(long)
	if err != nil {
		t.Fatal(err)
	}
	const count = 2048
	if !fb.ShouldUseFFT(count, len(long), true) || !fb.ShouldUseFFT(count, len(long), false) {
		t.Fatal("bank must take the FFT path for a full sweep")
	}
	short := 4096 + count - 2
	crows := make([][]complex128, len(long))
	rrows := make([][]float64, len(long))
	for i := range long {
		crows[i] = make([]complex128, count)
		crows[i][0] = 7
		rrows[i] = make([]float64, count)
		rrows[i][0] = 7
	}
	if err := fb.CorrelateAll(make([]complex128, short), 0, count, nil, crows); err != ErrLengthMismatch {
		t.Errorf("input one sample short of the sweep: err %v, want ErrLengthMismatch", err)
	}
	if err := fb.CorrelateRealAll(make([]float64, short), 0, count, nil, rrows); err != ErrLengthMismatch {
		t.Errorf("real input one sample short of the sweep: err %v, want ErrLengthMismatch", err)
	}
	for i := range long {
		if crows[i][0] != 7 || rrows[i][0] != 7 {
			t.Fatalf("row %d written by a rejected query", i)
		}
	}
}

// TestCrossCorrelateRealMatchesComplex requires the real-input query to
// equal the complex query on the same (real) samples.
func TestCrossCorrelateRealMatchesComplex(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	xr := randReal(r, 100)
	fb, err := NewFilterBank([][]float64{randReal(r, 16)})
	if err != nil {
		t.Fatal(err)
	}
	xc := make([]complex128, len(xr))
	for i, v := range xr {
		xc[i] = complex(v, 0)
	}
	count := len(xr) - 16 + 1
	gr := [][]float64{make([]float64, count)}
	gc := [][]complex128{make([]complex128, count)}
	if err := fb.CorrelateRealAll(xr, 0, count, nil, gr); err != nil {
		t.Fatal(err)
	}
	if err := fb.CorrelateAll(xc, 0, count, nil, gc); err != nil {
		t.Fatal(err)
	}
	for k := range gr[0] {
		if gr[0][k] != real(gc[0][k]) || imag(gc[0][k]) != 0 {
			t.Fatalf("lag %d: real %v vs complex %v", k, gr[0][k], gc[0][k])
		}
	}
}

// TestCrossCorrelateShiftProperty embeds the template at a random shift in
// an otherwise silent buffer: the correlation peaks exactly at the shift.
func TestCrossCorrelateShiftProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 8 + r.Intn(24)
		shift := r.Intn(50)
		tmpl := randReal(r, m)
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			return false
		}
		x := make([]float64, shift+m+20)
		copy(x[shift:], tmpl)
		count := len(x) - m + 1
		rows := [][]float64{make([]float64, count)}
		if err := fb.CorrelateRealAll(x, 0, count, nil, rows); err != nil {
			return false
		}
		best := 0
		for k, v := range rows[0] {
			if v > rows[0][best] {
				best = k
			}
		}
		return best == shift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCrossCorrelateFFTEquivalenceProperty drives random lengths and phases
// through the bank's overlap-add path — forced, whatever the cutover would
// pick — and requires agreement with the direct loop within 1e-9 of the
// output scale, including template lengths straddling the block boundaries.
func TestCrossCorrelateFFTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		n := m + rng.Intn(2000)
		x := randComplex(rng, n)
		tmpl := randReal(rng, m)
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			t.Fatal(err)
		}
		count := n - m + 1
		want := make([]complex128, count)
		for k := range want {
			for i, v := range tmpl {
				want[k] += x[k+i] * complex(v, 0)
			}
		}
		got := [][]complex128{make([]complex128, count)}
		fb.overlapAdd(x, count, []int{0}, nil, got)
		scale := maxMagC(want)
		if scale == 0 {
			scale = 1
		}
		for k := range want {
			if d := cmplx.Abs(got[0][k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): lag %d differs by %g (scale %g)", trial, n, m, k, d, scale)
			}
		}
	}
}

// TestCrossCorrelateRealFFTEquivalenceProperty is the real-vector analogue:
// real samples embedded on the complex axis, real rows out.
func TestCrossCorrelateRealFFTEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(300)
		n := m + rng.Intn(2000)
		x := randReal(rng, n)
		tmpl := randReal(rng, m)
		fb, err := NewFilterBank([][]float64{tmpl})
		if err != nil {
			t.Fatal(err)
		}
		count := n - m + 1
		want := make([]float64, count)
		var scale float64
		for k := range want {
			for i, v := range tmpl {
				want[k] += x[k+i] * v
			}
			scale = math.Max(scale, math.Abs(want[k]))
		}
		if scale == 0 {
			scale = 1
		}
		cx := make([]complex128, n)
		for i, v := range x {
			cx[i] = complex(v, 0)
		}
		got := [][]float64{make([]float64, count)}
		fb.overlapAdd(cx, count, []int{0}, got, nil)
		for k := range want {
			if d := math.Abs(got[0][k] - want[k]); d > equivTol*scale {
				t.Fatalf("trial %d (n=%d m=%d): lag %d differs by %g", trial, n, m, k, d)
			}
		}
	}
}

// TestFilterBankMatchesDirectLoops checks every bank query shape — complex
// and real input, template subsets, windowed spans, both sides of the
// cutover — against the naive sliding loops.
func TestFilterBankMatchesDirectLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m := 32 + rng.Intn(400)
		nt := 1 + rng.Intn(6)
		tmpls := make([][]float64, nt)
		for i := range tmpls {
			tmpls[i] = randReal(rng, m)
		}
		fb, err := NewFilterBank(tmpls)
		if err != nil {
			t.Fatal(err)
		}
		count := 1 + rng.Intn(900)
		lo := rng.Intn(50)
		n := lo + count + m - 1 + rng.Intn(20)
		x := randComplex(rng, n)
		env := randReal(rng, n)

		ids := []int{}
		for id := 0; id < nt; id++ {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			ids = nil
		}
		sel := ids
		if sel == nil {
			sel = fb.allIDs()
		}

		crows := make([][]complex128, len(sel))
		rrows := make([][]float64, len(sel))
		for j := range sel {
			crows[j] = make([]complex128, count)
			rrows[j] = make([]float64, count)
		}
		if err := fb.CorrelateAll(x, lo, count, ids, crows); err != nil {
			t.Fatal(err)
		}
		if err := fb.CorrelateRealAll(env, lo, count, ids, rrows); err != nil {
			t.Fatal(err)
		}
		for j, id := range sel {
			for k := 0; k < count; k++ {
				var re, im, rr float64
				for i, v := range tmpls[id] {
					re += real(x[lo+k+i]) * v
					im += imag(x[lo+k+i]) * v
					rr += env[lo+k+i] * v
				}
				scale := cmplx.Abs(complex(re, im)) + 1
				if d := cmplx.Abs(crows[j][k] - complex(re, im)); d > equivTol*scale {
					t.Fatalf("trial %d: complex row %d lag %d differs by %g", trial, id, k, d)
				}
				rscale := math.Abs(rr) + 1
				if d := math.Abs(rrows[j][k] - rr); d > equivTol*rscale {
					t.Fatalf("trial %d: real row %d lag %d differs by %g", trial, id, k, d)
				}
			}
		}
	}
}

// TestFilterBankValidation exercises the constructor and query guards.
func TestFilterBankValidation(t *testing.T) {
	if _, err := NewFilterBank(nil); err == nil {
		t.Error("empty bank must fail")
	}
	if _, err := NewFilterBank([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("unequal template lengths must fail")
	}
	fb, err := NewFilterBank([][]float64{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{make([]float64, 4)}
	if err := fb.CorrelateRealAll(make([]float64, 10), 0, 0, nil, rows); err == nil {
		t.Error("zero-count query must fail")
	}
	if err := fb.CorrelateRealAll(make([]float64, 10), 8, 4, nil, rows); err == nil {
		t.Error("out-of-range span must fail")
	}
	if err := fb.CorrelateRealAll(make([]float64, 10), 0, 4, nil, nil); err == nil {
		t.Error("missing rows must fail")
	}
}

// TestShouldUseFFTMonotone sanity-checks the cutover: tiny queries stay on
// the direct loop, large matched-filter sweeps move to the FFT.
func TestShouldUseFFTMonotone(t *testing.T) {
	long := make([][]float64, 8)
	for i := range long {
		long[i] = make([]float64, 4096)
	}
	fb, err := NewFilterBank(long)
	if err != nil {
		t.Fatal(err)
	}
	if fb.ShouldUseFFT(4, 1, false) {
		t.Error("4-lag single-template query must stay direct")
	}
	if !fb.ShouldUseFFT(2048, 8, true) {
		t.Error("2048-lag 8-template complex query must use the FFT")
	}
	short := [][]float64{make([]float64, 8)}
	fbs, err := NewFilterBank(short)
	if err != nil {
		t.Fatal(err)
	}
	if fbs.ShouldUseFFT(1<<20, 1, true) {
		t.Error("8-tap template must never take the FFT path")
	}
}

// TestFilterBankCloneSharesSpectra pins the clone contract: clones share the
// lazily built frequency-domain template cache (the same backing slices, so
// forward transforms are paid once per family) while owning private query
// scratch, and concurrent queries from many clones agree with the original.
func TestFilterBankCloneSharesSpectra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tmpls := make([][]float64, 6)
	for i := range tmpls {
		tmpls[i] = randReal(rng, 256)
	}
	fb, err := NewFilterBank(tmpls)
	if err != nil {
		t.Fatal(err)
	}
	count := 2048
	n := count + fb.m - 1
	env := randReal(rng, n)
	if !fb.ShouldUseFFT(count, len(tmpls), false) {
		t.Fatal("test query must take the FFT path")
	}
	rows := func() [][]float64 {
		r := make([][]float64, len(tmpls))
		for j := range r {
			r[j] = make([]float64, count)
		}
		return r
	}
	want := rows()
	if err := fb.CorrelateRealAll(env, 0, count, nil, want); err != nil {
		t.Fatal(err)
	}
	size, _ := fb.blocking(count)
	spec := fb.spectraFor(size)

	var wg sync.WaitGroup
	got := make([][][]float64, 8)
	clones := make([]*FilterBank, 8)
	for w := range clones {
		clones[w] = fb.Clone()
		got[w] = rows()
	}
	for w := range clones {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := clones[w].CorrelateRealAll(env, 0, count, nil, got[w]); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := range clones {
		cs := clones[w].spectraFor(size)
		if &cs[0][0] != &spec[0][0] {
			t.Errorf("clone %d rebuilt spectra instead of sharing the cache", w)
		}
		for j := range want {
			for k := range want[j] {
				if got[w][j][k] != want[j][k] {
					t.Fatalf("clone %d row %d lag %d: %v != %v", w, j, k, got[w][j][k], want[j][k])
				}
			}
		}
	}
}

// BenchmarkCorrelateBankSweep127 measures the receiver-shaped query: ten
// 127-chip preamble templates (8-bit preamble, 4 samples per chip) swept
// over a ±64-chip detection window, sharing the input transform.
func BenchmarkCorrelateBankSweep127(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	const nt = 10
	m := 8 * 127 * 4
	tmpls := make([][]float64, nt)
	for i := range tmpls {
		tmpls[i] = randReal(rng, m)
	}
	fb, err := NewFilterBank(tmpls)
	if err != nil {
		b.Fatal(err)
	}
	count := 2*64*4 + 1
	x := randComplex(rng, count+m+64)
	rows := make([][]complex128, nt)
	for i := range rows {
		rows[i] = make([]complex128, count)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fb.CorrelateAll(x, 0, count, nil, rows); err != nil {
			b.Fatal(err)
		}
	}
}
