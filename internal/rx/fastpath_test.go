package rx

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"cbma/internal/dsp"
	"cbma/internal/pn"
)

func gold127Set(t testing.TB, n int) *pn.Set {
	t.Helper()
	s, err := pn.NewGoldSet(7, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// directReceiver builds a receiver whose filter bank can never clear the
// FFT cutover (an 8-tap dummy bank), pinning every code path to the direct
// per-lag loops. The bank is only consulted through ShouldUseFFT before any
// correlation, so the dummy templates are never actually correlated.
func directReceiver(t testing.TB, cfg Config) *Receiver {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := dsp.NewFilterBank([][]float64{make([]float64, 8)})
	if err != nil {
		t.Fatal(err)
	}
	r.bank = tiny
	return r
}

// TestEstimateSNRBoundedToFrame pins the estimator to a synthetic power
// profile with a known SNR: integrating only the frame extent must recover
// it exactly, while integrating through the post-frame noise tail (the old
// behaviour) biases the estimate low by the tail-to-frame duty ratio.
func TestEstimateSNRBoundedToFrame(t *testing.T) {
	set := goldSet(t, 1)
	r := newTestReceiver(t, set)
	const (
		noise = 1e-10
		snr   = 100.0 // 20 dB
		lag   = 1000
		frame = 2000
		tail  = 6000
	)
	power := make([]float64, lag+frame+tail)
	for i := range power {
		power[i] = noise
	}
	for i := lag; i < lag+frame; i++ {
		power[i] = noise * (1 + snr)
	}
	got := r.estimateSNR(power, lag, frame, noise)
	if math.Abs(got-20) > 1e-9 {
		t.Errorf("bounded estimate = %v dB, want 20", got)
	}
	// The pre-fix behaviour: integrate from lag to the end of the buffer.
	biased := r.estimateSNR(power, lag, len(power)-lag, noise)
	want := 10 * math.Log10(snr*frame/float64(frame+tail))
	if math.Abs(biased-want) > 1e-9 {
		t.Errorf("tail-integrated estimate = %v dB, want %v", biased, want)
	}
	if biased > got-5 {
		t.Errorf("tail integration must bias low: %v vs %v", biased, got)
	}
	if r.estimateSNR(power, len(power)+5, frame, noise) != 0 {
		t.Error("out-of-range lag must report 0")
	}
	if r.estimateSNR(power, lag, 0, noise) != 0 {
		t.Error("zero extent must report 0")
	}
}

// TestReceiveSNRUnbiasedByNoiseTail is the end-to-end form: a single
// 20 dB tag followed by a noise tail four times the frame length. The old
// estimator integrated the whole tail and reported ≈7 dB low.
func TestReceiveSNRUnbiasedByNoiseTail(t *testing.T) {
	set := goldSet(t, 1)
	payload := []byte("snr-check")
	r := newTestReceiver(t, set)
	extent := r.frameExtentSamples(len(payload))
	if extent <= 0 {
		t.Fatal("frame extent must be positive")
	}
	lead := 60 * testSPC
	buf := buildScenario(t, set, [][]byte{payload}, []complex128{amp(20)}, []int{0}, lead, 4*extent)
	res, err := r.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != 1 || !res.Frames[0].OK {
		t.Fatal("frame not decoded")
	}
	// The tag is OOK, active on roughly half its chips, so the realized
	// in-frame SNR for a 20 dB amplitude is ≈17 dB. The old estimator's
	// 4×-frame tail dragged this below 11 dB.
	snr := res.Frames[0].SNRdB
	if snr < 15 || snr > 19 {
		t.Errorf("SNR estimate %v dB, want ≈17 despite the noise tail", snr)
	}
}

// TestEnergyDetectShorterThanWarmup drives buffers shorter than the warmup
// (short-term) window through the detector: no panic, no detection.
func TestEnergyDetectShorterThanWarmup(t *testing.T) {
	for _, n := range []int{1, 5, 32, 63} {
		power := make([]float64, n)
		for i := range power {
			power[i] = 1 // loud everywhere, but too short to warm up
		}
		if _, found := detectBoth(t, power, 100, 3, 64); found {
			t.Errorf("len %d buffer shorter than the warmup window must not detect", n)
		}
	}
}

func sameResult(t *testing.T, label string, a, b Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: results differ:\n  a = %+v\n  b = %+v", label, a, b)
	}
}

// TestReceiveFFTPathMatchesDirect decodes a 127-chip four-tag collision with
// the stock receiver (whose alignment sweep clears the FFT cutover) and with
// a cutover-disabled twin, requiring identical results: the frequency-domain
// rows agree with the direct dot products to ~1e-12 relative, the scan
// pattern is shared, and the detection statistics are recomputed directly in
// both paths.
func TestReceiveFFTPathMatchesDirect(t *testing.T) {
	const nTags = 4
	set := gold127Set(t, nTags)
	cfg := Config{
		Codes:          set,
		SamplesPerChip: testSPC,
		NoiseFloorW:    testNoise,
		SearchChips:    1,
	}
	fast, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct := directReceiver(t, cfg)

	// Guard against the cutover silently regressing and making this test
	// vacuous: the stock receiver's alignment window must select the FFT.
	alignCount := fast.shortWindow() + 4*testSPC + 1
	if !fast.bank.ShouldUseFFT(alignCount, nTags, false) {
		t.Fatalf("alignment window (count=%d, codes=%d) no longer clears the FFT cutover", alignCount, nTags)
	}

	payloads := make([][]byte, nTags)
	gains := make([]complex128, nTags)
	offsets := make([]int, nTags)
	for i := range payloads {
		payloads[i] = []byte{byte(i), 0xA5, byte(40 + i), 0x3C}
		gains[i] = amp(18)
	}
	lead := 60 * testSPC
	buf := buildScenario(t, set, payloads, gains, offsets, lead, 200)

	fastRes, err := fast.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	directRes, err := direct.Receive(buf)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "fft vs direct", fastRes, directRes)
	if len(fastRes.Frames) != nTags {
		t.Fatalf("decoded %d of %d tags", len(fastRes.Frames), nTags)
	}
	for i, f := range fastRes.Frames {
		if !f.OK || !bytes.Equal(f.Payload, payloads[f.TagID]) {
			t.Errorf("frame %d: OK=%v payload mismatch", i, f.OK)
		}
	}
}

func benchmarkReceive(b *testing.B, set *pn.Set, nTags int, sic bool) {
	payloads := make([][]byte, nTags)
	gains := make([]complex128, nTags)
	offsets := make([]int, nTags)
	for i := range payloads {
		payloads[i] = []byte{byte(i), 0x5A, byte(90 - i), 0x0F, byte(i * 3), 0x42, 0x18, byte(200 - i)}
		// Distinct per-tag channel phases and a mild near-far spread, as a
		// fading channel would produce; with all phasors aligned the
		// coherent sum degenerates and nothing clears detection.
		phi := 2 * math.Pi * float64(i) / float64(nTags)
		gains[i] = amp(16+float64(i)) * complex(math.Cos(phi), math.Sin(phi))
	}
	lead := 60 * testSPC
	buf := buildScenario(b, set, payloads, gains, offsets, lead, 200)
	r, err := New(Config{
		Codes:          set,
		SamplesPerChip: testSPC,
		NoiseFloorW:    testNoise,
		SearchChips:    1,
		SIC:            sic,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Receive(buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Frames) == 0 {
			b.Fatal("no frames decoded")
		}
	}
}

// BenchmarkReceive31Gold10Tags is the paper's default configuration: ten
// colliding tags on 31-chip Gold codes at 4 samples per chip. The alignment
// sweep sits below the FFT cutover, so this measures the (bit-identical)
// direct path plus the buffer-reuse savings.
func BenchmarkReceive31Gold10Tags(b *testing.B) {
	set, err := pn.NewGoldSet(5, 10)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkReceive(b, set, 10, false)
}

// BenchmarkReceiveSIC31Gold10Tags is the same collision through the SIC
// receiver: ten detection passes, each accepted user growing the joint
// amplitude fit and rebuilding the residual.
func BenchmarkReceiveSIC31Gold10Tags(b *testing.B) {
	set, err := pn.NewGoldSet(5, 10)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkReceive(b, set, 10, true)
}

// BenchmarkReceive127Gold10Tags is the long-code case where the alignment
// sweep clears the cutover and runs through the frequency-domain bank.
func BenchmarkReceive127Gold10Tags(b *testing.B) {
	set, err := pn.NewGoldSet(7, 10)
	if err != nil {
		b.Fatal(err)
	}
	benchmarkReceive(b, set, 10, false)
}
