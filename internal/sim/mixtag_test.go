package sim

import (
	"math"
	"math/rand"
	"testing"

	"cbma/internal/dsp"
	"cbma/internal/geom"
	"cbma/internal/pn"
	"cbma/internal/tag"
)

// referenceMix is the per-tag chain mixTag fuses, built from the kept
// primitives: the materialized waveform (tag.WaveformInto), the in-place
// fractional delay, the CFO phase ramp, outage zeroing, then ×gain, ×gate
// and accumulation into dst.
func referenceMix(t *testing.T, tg *tag.Tag, payload []byte, tx *tagTx, gate []float64, dst []complex128) {
	t.Helper()
	w, err := tg.WaveformInto(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != tx.n {
		t.Fatalf("waveform has %d samples, record says %d", len(w), tx.n)
	}
	dsp.FractionalDelayInPlace(w, tx.frac)
	if tx.rot != 0 {
		phasor := complex(1, 0)
		for k := range w {
			w[k] *= phasor
			phasor *= tx.rot
		}
	}
	for k := tx.cut; k < len(w); k++ {
		w[k] = 0
	}
	for k, v := range w {
		s := v * tx.gain
		if gate != nil {
			s *= complex(gate[k], 0)
		}
		dst[k] += s
	}
}

// sameBits reports whether a and b are the same complex128 bit patterns
// (stricter than ==, which equates +0 and −0).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// randomGain draws a complex gain, sometimes with an exactly zero or
// negative-zero component so the kernel's zero skipping meets signed zeros.
func randomGain(rng *rand.Rand) complex128 {
	part := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return rng.NormFloat64() * math.Pow(10, -3*rng.Float64())
		}
	}
	return complex(part(), part())
}

// TestMixTagMatchesReference: the fused kernel's output equals the
// materialized chain's bit for bit on every sample, across payloads,
// oversampling factors, fractional delays (none, below the build stage's
// 1e-9 threshold, arbitrary), outage cuts (including 0 and none), complex
// gains, and the gate and CFO paths on and off. dst starts from a shared
// background of earlier tags' samples and untouched +0 entries, as in the
// mixing buffer.
func TestMixTagMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := map[pn.Family]*pn.Set{}
	for _, f := range []pn.Family{pn.FamilyGold, pn.Family2NC} {
		set, err := pn.NewSet(f, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		sets[f] = set
	}
	var rb roundBuffers
	trials := 400
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		family := pn.FamilyGold
		if rng.Intn(3) == 0 {
			family = pn.Family2NC
		}
		code := sets[family].Codes[rng.Intn(4)]
		spc := []int{1, 2, 4, 8}[rng.Intn(4)]
		tg, err := tag.New(0, tag.Config{Code: code, SamplesPerChip: spc}, geom.Point{})
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1+rng.Intn(16))
		rng.Read(payload)
		bits, err := tg.FrameBits(payload)
		if err != nil {
			t.Fatal(err)
		}
		tx := tagTx{
			bits: bits,
			code: code,
			spc:  spc,
			frac: []float64{0, 1e-10, rng.Float64()}[rng.Intn(3)],
			gain: randomGain(rng),
		}
		tx.n = len(bits) * code.Length() * spc
		switch rng.Intn(4) {
		case 0:
			tx.cut = tx.n
		case 1:
			tx.cut = 0
		default:
			tx.cut = rng.Intn(tx.n + 1)
		}
		if rng.Intn(2) == 0 {
			step := 2 * math.Pi * 1e-4 * (2*rng.Float64() - 1)
			tx.rot = complex(math.Cos(step), math.Sin(step))
		}
		var gate []float64
		if rng.Intn(2) == 0 {
			gate = make([]float64, tx.n)
			for i := range gate {
				switch rng.Intn(3) {
				case 0:
					gate[i] = 0
				case 1:
					gate[i] = 1
				default:
					gate[i] = rng.Float64()
				}
			}
		}
		want := make([]complex128, tx.n)
		for i := range want {
			if rng.Intn(3) > 0 {
				want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		got := append([]complex128(nil), want...)

		referenceMix(t, tg, payload, &tx, gate, want)
		rb.mixTag(got, &tx, gate)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("trial %d (spc=%d frac=%g cut=%d/%d cfo=%v gate=%v gain=%v): sample %d = %v, reference %v",
					trial, spc, tx.frac, tx.cut, tx.n, tx.rot != 0, gate != nil, tx.gain, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkMixTag times one tag's frame through the fused kernel at the
// default oversampling: a 16-byte payload on a Gold-31 code with a
// fractional delay, on the plain path and with CFO and the excitation gate.
func BenchmarkMixTag(b *testing.B) {
	set, err := pn.NewSet(pn.FamilyGold, 2, 5)
	if err != nil {
		b.Fatal(err)
	}
	spc := DefaultScenario().SamplesPerChip()
	tg, err := tag.New(0, tag.Config{Code: set.Codes[0], SamplesPerChip: spc}, geom.Point{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 16)
	rand.New(rand.NewSource(1)).Read(payload)
	bits, err := tg.FrameBits(payload)
	if err != nil {
		b.Fatal(err)
	}
	tx := tagTx{bits: bits, code: set.Codes[0], spc: spc, frac: 0.37, gain: complex(3e-4, -1e-4)}
	tx.n = len(bits) * tx.code.Length() * spc
	tx.cut = tx.n
	dst := make([]complex128, tx.n)
	gate := make([]float64, tx.n)
	for i := range gate {
		gate[i] = 1
	}
	var rb roundBuffers
	cfo := tx
	cfo.rot = complex(math.Cos(1e-4), math.Sin(1e-4))
	for _, bc := range []struct {
		name string
		tx   *tagTx
		gate []float64
	}{
		{"plain", &tx, nil},
		{"cfo+gate", &cfo, gate},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(16 * tx.n))
			for i := 0; i < b.N; i++ {
				rb.mixTag(dst, bc.tx, bc.gate)
			}
		})
	}
}
