package rx

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
	"cbma/internal/tag"
)

func TestSolveComplexKnownSystem(t *testing.T) {
	// [2 1; 1 3]·a = [5+1i; 10-2i] → a = [1+1i, 3-1i]
	g := [][]float64{{2, 1}, {1, 3}}
	b := []complex128{5 + 1i, 10 - 2i}
	a, ok := solveComplex(g, b)
	if !ok {
		t.Fatal("solver failed")
	}
	want := []complex128{1 + 1i, 3 - 1i}
	for i := range want {
		if cmplx.Abs(a[i]-want[i]) > 1e-9 {
			t.Errorf("a[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestSolveComplexSingular(t *testing.T) {
	g := [][]float64{{1, 1}, {1, 1}}
	b := []complex128{1, 1}
	if _, ok := solveComplex(g, b); ok {
		t.Fatal("singular system must report failure")
	}
}

func TestSolveComplexIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const k = 5
	g := make([][]float64, k)
	b := make([]complex128, k)
	for i := range g {
		g[i] = make([]float64, k)
		g[i][i] = 1
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	a, ok := solveComplex(g, b)
	if !ok {
		t.Fatal("identity solve failed")
	}
	for i := range b {
		if a[i] != b[i] {
			t.Errorf("a[%d] = %v, want %v", i, a[i], b[i])
		}
	}
}

func TestSuppressGhosts(t *testing.T) {
	frames := []DecodedFrame{
		{TagID: 0, OK: true, Corr: 0.5, Payload: []byte("abc")},
		{TagID: 1, OK: true, Corr: 0.2, Payload: []byte("abc")}, // ghost of 0
		{TagID: 2, OK: true, Corr: 0.4, Payload: []byte("xyz")},
		{TagID: 3, OK: false, Corr: 0.9, Payload: []byte("abc")}, // already failed
	}
	suppressGhosts(frames)
	if !frames[0].OK {
		t.Error("strongest duplicate must survive")
	}
	if frames[1].OK || !errors.Is(frames[1].Err, ErrGhost) {
		t.Errorf("weaker duplicate must be ghost-suppressed: %+v", frames[1])
	}
	if !frames[2].OK {
		t.Error("unique payload must survive")
	}
	if errors.Is(frames[3].Err, ErrGhost) {
		t.Error("already-failed frames are not ghost candidates")
	}
}

func TestSuppressGhostsKeepsLaterStronger(t *testing.T) {
	frames := []DecodedFrame{
		{TagID: 0, OK: true, Corr: 0.2, Payload: []byte("p")},
		{TagID: 1, OK: true, Corr: 0.6, Payload: []byte("p")},
	}
	suppressGhosts(frames)
	if frames[0].OK || !frames[1].OK {
		t.Errorf("the stronger (later) frame must win: %+v", frames)
	}
}

// buildTenTagBuffer synthesizes a collision of the given active Gold tags.
func buildTenTagBuffer(t *testing.T, set *pn.Set, active []int, rng *rand.Rand, spc int, noise float64) ([]complex128, map[int][]byte, int) {
	t.Helper()
	const lead = 2000
	payloads := map[int][]byte{}
	var buf []complex128
	for _, id := range active {
		tg, err := tag.New(id, tag.Config{Code: set.Codes[id], SamplesPerChip: spc}, geom.Point{})
		if err != nil {
			t.Fatal(err)
		}
		p := make([]byte, 10)
		rng.Read(p)
		payloads[id] = p
		w, err := tg.Waveform(p)
		if err != nil {
			t.Fatal(err)
		}
		if buf == nil {
			buf = make([]complex128, lead+len(w)+300)
		}
		phase := rng.Float64() * 2 * math.Pi
		amp := complex(math.Sqrt(noise*200), 0) * cmplx.Exp(complex(0, phase))
		for k, v := range w {
			buf[lead+k] += v * amp
		}
	}
	channel.AWGN(rng, buf, noise)
	return buf, payloads, lead
}

func TestSICDecodesAllActiveExactly(t *testing.T) {
	set, err := pn.NewGoldSet(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	const spc = 4
	const noise = 1e-10
	r, err := New(Config{Codes: set, SamplesPerChip: spc, NoiseFloorW: noise, SIC: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const trials = 10
	exact := 0
	for trial := 0; trial < trials; trial++ {
		var active []int
		for i := 0; i < 10; i++ {
			if rng.Float64() < 0.5 {
				active = append(active, i)
			}
		}
		if len(active) == 0 {
			active = []int{trial % 10}
		}
		buf, payloads, lead := buildTenTagBuffer(t, set, active, rng, spc, noise)
		res, err := r.ReceiveAt(buf, lead)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int][]byte{}
		for _, f := range res.Frames {
			if !f.OK || errors.Is(f.Err, ErrGhost) {
				continue
			}
			got[f.TagID] = f.Payload
		}
		ok := len(got) == len(active)
		for _, id := range active {
			if !bytes.Equal(got[id], payloads[id]) {
				ok = false
			}
		}
		if ok {
			exact++
		}
	}
	// Rare per-trial errors (copy-ghosts of CRC-failed frames) are a known
	// residual — see EXPERIMENTS.md; the bulk must decode exactly.
	if exact < trials-2 {
		t.Errorf("only %d/%d trials decoded the exact active set", exact, trials)
	}
}

func TestReceiveAtAnchorsLoneSparseTag(t *testing.T) {
	// A single 2NC tag is only identifiable with the reader timing hint:
	// its energy edge reveals its slot, not the frame start.
	set, err := pn.New2NCSet(10)
	if err != nil {
		t.Fatal(err)
	}
	const spc = 8
	const noise = 1e-10
	r, err := New(Config{Codes: set, SamplesPerChip: spc, NoiseFloorW: noise})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, active := range []int{0, 3, 7, 9} {
		tg, err := tag.New(active, tag.Config{Code: set.Codes[active], SamplesPerChip: spc}, geom.Point{})
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte{0xC0, 0xFF, 0xEE}
		w, err := tg.Waveform(payload)
		if err != nil {
			t.Fatal(err)
		}
		const lead = 2560
		buf := make([]complex128, lead+len(w)+300)
		amp := complex(math.Sqrt(noise*100), 0)
		for k, v := range w {
			buf[lead+k] += v * amp
		}
		channel.AWGN(rng, buf, noise)
		res, err := r.ReceiveAt(buf, lead)
		if err != nil {
			t.Fatal(err)
		}
		okIDs := res.AckIDs()
		if len(okIDs) != 1 || okIDs[0] != active {
			t.Errorf("active=%d: decoded IDs %v, want [%d]", active, okIDs, active)
		}
	}
}

func TestRefineEdgeFindsRise(t *testing.T) {
	set, _ := pn.NewGoldSet(5, 2)
	r, err := New(Config{Codes: set, SamplesPerChip: 4, NoiseFloorW: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	const noise = 1e-10
	power := make([]float64, n)
	rng := rand.New(rand.NewSource(5))
	for i := range power {
		power[i] = noise * rng.ExpFloat64()
	}
	const rise = 2000
	for i := rise; i < n; i++ {
		power[i] += noise * 50
	}
	edge := r.refineEdge(power, rise-100, noise)
	if edge < rise-2 || edge > rise+16 {
		t.Errorf("edge %d, want ≈%d", edge, rise)
	}
	// Zero noise estimate falls back to the coarse start.
	if got := r.refineEdge(power, 123, 0); got != 123 {
		t.Errorf("fallback edge %d, want 123", got)
	}
}

// oracleUser is one accepted user of jointSystemOracle: its frame start and
// spread chips.
type oracleUser struct {
	lag   int
	chips []byte
}

// jointSystemOracle builds the SIC joint least-squares system from scratch
// for the whole accepted set: G[i][j] counts the samples where users i and
// j both reflect and b[i] sums x over user i's active samples, walking each
// user's chips and asking per sample whether every later user is active
// there. sicFit grows the same system one user at a time and must equal it
// exactly.
func jointSystemOracle(x []complex128, spc int, users []oracleUser) ([][]float64, []complex128) {
	k := len(users)
	g := make([][]float64, k)
	b := make([]complex128, k)
	for i := range g {
		g[i] = make([]float64, k)
	}
	// onAt reports whether user u is reflecting at absolute sample t.
	onAt := func(u int, t int) bool {
		rel := t - users[u].lag
		if rel < 0 {
			return false
		}
		c := rel / spc
		if c >= len(users[u].chips) {
			return false
		}
		return users[u].chips[c] == 1
	}
	for i := 0; i < k; i++ {
		ui := users[i]
		for c, chip := range ui.chips {
			if chip == 0 {
				continue
			}
			base := ui.lag + c*spc
			for s := 0; s < spc; s++ {
				t := base + s
				if t < 0 || t >= len(x) {
					continue
				}
				b[i] += x[t]
				g[i][i]++
				for j := i + 1; j < k; j++ {
					if onAt(j, t) {
						g[i][j]++
						g[j][i]++
					}
				}
			}
		}
	}
	return g, b
}

// checkFitMatchesOracle requires the fit's system, chips and solve outcome
// to equal the from-scratch oracle's bit for bit.
func checkFitMatchesOracle(t *testing.T, label string, fit *sicFit, x []complex128, spc int, users []oracleUser) {
	t.Helper()
	g, b := jointSystemOracle(x, spc, users)
	k := len(users)
	if len(fit.g) != k || len(fit.b) != k || len(fit.lags) != k {
		t.Fatalf("%s: fit holds %d/%d/%d users, want %d", label, len(fit.g), len(fit.b), len(fit.lags), k)
	}
	for i := 0; i < k; i++ {
		if fit.lags[i] != users[i].lag || !bytes.Equal(fit.chips[i], users[i].chips) {
			t.Fatalf("%s: user %d lag/chips differ from the spread frame", label, i)
		}
		if len(fit.g[i]) != k {
			t.Fatalf("%s: G row %d has length %d, want %d", label, i, len(fit.g[i]), k)
		}
		for j := 0; j < k; j++ {
			if fit.g[i][j] != g[i][j] {
				t.Fatalf("%s: G[%d][%d] = %v, oracle %v", label, i, j, fit.g[i][j], g[i][j])
			}
		}
		if fit.b[i] != b[i] {
			t.Fatalf("%s: b[%d] = %v, oracle %v", label, i, fit.b[i], b[i])
		}
	}
	amps, ok := solveComplex(fit.g, fit.b)
	wantAmps, wantOK := solveComplex(g, b)
	if ok != wantOK {
		t.Fatalf("%s: solve ok = %v, oracle %v", label, ok, wantOK)
	}
	for i := range wantAmps {
		if amps[i] != wantAmps[i] {
			t.Fatalf("%s: amplitude %d = %v, oracle %v", label, i, amps[i], wantAmps[i])
		}
	}
}

// randomCode draws a code of the given length with chips active at
// probability density.
func randomCode(rng *rand.Rand, length int, density float64) pn.Code {
	c := pn.Code{One: make([]byte, length), Zero: make([]byte, length)}
	for i := 0; i < length; i++ {
		if rng.Float64() < density {
			c.One[i] = 1
		}
		if rng.Float64() < density {
			c.Zero[i] = 1
		}
	}
	return c
}

// TestSICFitMatchesOracle grows the incremental fit over random user sets —
// 1 to 10 users, every oversampling factor, lags before the buffer start
// and past its end, clustered and sparse supports — and requires every Gram
// entry, right-hand side and amplitude to equal the from-scratch oracle
// after each added user. One fit is reused across all cases, as the
// receiver reuses it across buffers, so stale scratch would show.
func TestSICFitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const maxUsers = 10
	var fit sicFit
	cases := 0
	for _, spc := range []int{1, 2, 4, 8} {
		for k := 1; k <= maxUsers; k++ {
			for trial := 0; trial < 6; trial++ {
				n := 64 + rng.Intn(1500)
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				fit.reset(x, spc, maxUsers)
				clusterLag := rng.Intn(n) - n/4
				var users []oracleUser
				for u := 0; u < k; u++ {
					code := randomCode(rng, []int{3, 7, 31}[rng.Intn(3)], []float64{0.1, 0.5, 0.9}[rng.Intn(3)])
					frameBits := make([]byte, 1+rng.Intn(24))
					for i := range frameBits {
						frameBits[i] = byte(rng.Intn(2))
					}
					extent := len(frameBits) * code.Length() * spc
					var lag int
					switch trial % 4 {
					case 0: // starts before the buffer
						lag = -rng.Intn(extent + 1)
					case 1: // runs past the buffer end
						lag = n - rng.Intn(extent+1)
					case 2: // heavily overlapping: a few samples apart
						lag = clusterLag + rng.Intn(2*spc+1)
					default:
						lag = rng.Intn(n+2*extent) - extent
					}
					fit.add(lag, code, frameBits)
					users = append(users, oracleUser{lag: lag, chips: code.Spread(frameBits)})
					checkFitMatchesOracle(t, fmt.Sprintf("spc=%d k=%d trial=%d user=%d", spc, k, trial, u), &fit, x, spc, users)
					cases++
				}
			}
		}
	}
	if cases == 0 {
		t.Fatal("no cases ran")
	}
}

// TestSICFitSingularUserStays: a user with exactly the support of an
// earlier one makes the system singular, so the solve fails — and the user
// stays in the fit, as every later solve includes it.
func TestSICFitSingularUserStays(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const spc = 4
	x := make([]complex128, 3000)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	code := randomCode(rng, 31, 0.5)
	frameBits := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	var fit sicFit
	fit.reset(x, spc, 4)
	var users []oracleUser
	add := func(lag int, c pn.Code, fb []byte) {
		fit.add(lag, c, fb)
		users = append(users, oracleUser{lag: lag, chips: c.Spread(fb)})
	}
	add(100, code, frameBits)
	if _, ok := solveComplex(fit.g, fit.b); !ok {
		t.Fatal("a single user must solve")
	}
	add(100, code, frameBits)
	if _, ok := solveComplex(fit.g, fit.b); ok {
		t.Fatal("two users with identical support must not solve")
	}
	checkFitMatchesOracle(t, "duplicate", &fit, x, spc, users)
	add(140, randomCode(rng, 31, 0.5), frameBits)
	if len(fit.b) != 3 {
		t.Fatalf("fit holds %d users, want the failed one kept (3)", len(fit.b))
	}
	checkFitMatchesOracle(t, "after duplicate", &fit, x, spc, users)
}

// TestDecodeAndCancelKeepsUnsolvedUser drives the receiver's accept step
// into a failed solve — the same verified user accepted twice has identical
// support — and requires the residual untouched, no rebuild reported and
// the user kept in the fit.
func TestDecodeAndCancelKeepsUnsolvedUser(t *testing.T) {
	set := goldSet(t, 1)
	r := newTestReceiver(t, set)
	lead := 60 * testSPC
	buf := buildScenario(t, set, [][]byte{[]byte("kept")}, []complex128{amp(20)}, []int{0}, lead, 200)
	det, ok := r.detectUser(nil, nil, buf, 0, lead, testNoise)
	if !ok {
		t.Fatal("tag not detected")
	}
	r.sicFit.reset(buf, testSPC, 2)
	var res Result
	if !r.decodeAndCancel(append([]complex128(nil), buf...), nil, &res, 0, det) {
		t.Fatal("the first accepted user must solve and rebuild the residual")
	}
	// Decode the same user again from the uncancelled buffer.
	work := append([]complex128(nil), buf...)
	if r.decodeAndCancel(work, nil, &res, 0, det) {
		t.Fatal("a duplicate-support user must fail the solve")
	}
	if len(res.Frames) != 2 || !res.Frames[1].OK {
		t.Fatalf("the duplicate must decode and verify: %+v", res.Frames)
	}
	if len(r.sicFit.b) != 2 {
		t.Fatalf("fit holds %d users, want the unsolved one kept (2)", len(r.sicFit.b))
	}
	for i := range work {
		if work[i] != buf[i] {
			t.Fatalf("residual changed at sample %d after a failed solve", i)
		}
	}
}

// referenceSICFrames is the SIC loop with neither incremental piece: every
// pass re-detects every remaining code, and every accepted user rebuilds
// the joint system from scratch through the oracle.
func referenceSICFrames(r *Receiver, samples []complex128, globalStart int, noiseW float64) []DecodedFrame {
	spc := r.cfg.SamplesPerChip
	work := append([]complex128(nil), samples...)
	envWork := dsp.MagnitudeInto(nil, samples)
	var remaining []int
	for id := range r.cfg.Codes.Codes {
		remaining = append(remaining, id)
	}
	dets := make([]detSlot, len(remaining))
	var frames []DecodedFrame
	var users []oracleUser
	for len(remaining) > 0 {
		r.detectInto(dets, remaining, envWork, work, globalStart, noiseW)
		id, det, found := bestDetection(dets, remaining)
		if !found {
			break
		}
		for j := range remaining {
			if remaining[j] == id {
				remaining = append(remaining[:j], remaining[j+1:]...)
				break
			}
		}
		f := r.decodeUser(work, id, det.lag, det.phasor)
		f.Corr = det.corr
		frames = append(frames, f)
		if !f.OK {
			continue
		}
		bits, err := frame.Marshal(f.Payload, r.cfg.Frame)
		if err != nil {
			continue
		}
		users = append(users, oracleUser{lag: f.Lag, chips: r.cfg.Codes.Codes[id].Spread(bits)})
		amps, ok := solveComplex(jointSystemOracle(samples, spc, users))
		if !ok {
			continue
		}
		copy(work, samples)
		for u := range users {
			subtractWaveform(work, users[u].lag, users[u].chips, spc, amps[u])
		}
		for i := range work {
			re, im := real(work[i]), imag(work[i])
			envWork[i] = math.Sqrt(re*re + im*im)
		}
	}
	suppressGhosts(frames)
	return frames
}

// sameFramesExact compares decoded frames field by field, floats by bits.
func sameFramesExact(t *testing.T, label string, want, got []DecodedFrame, withSNR bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d frames, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.TagID != g.TagID || w.OK != g.OK || w.Lag != g.Lag || !bytes.Equal(w.Payload, g.Payload) ||
			fmt.Sprint(w.Err) != fmt.Sprint(g.Err) ||
			math.Float64bits(w.Corr) != math.Float64bits(g.Corr) ||
			(withSNR && math.Float64bits(w.SNRdB) != math.Float64bits(g.SNRdB)) {
			t.Fatalf("%s: frame %d differs:\n  want %+v\n  got  %+v", label, i, w, g)
		}
	}
}

// TestSICReuseEquivalence decodes collisions that include CRC failures (so
// later passes reuse cached detections over an unchanged residual) and
// requires the Result — frames, payloads, correlation and SNR bits, lags —
// to equal the from-scratch reference loop, and to equal itself again on a
// rerun through the same scratch-reusing receiver.
func TestSICReuseEquivalence(t *testing.T) {
	gold := goldSet(t, 10)
	twonc, err := pn.New2NCSet(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	type collision struct {
		set  *pn.Set
		buf  []complex128
		lead int
	}
	var cases []collision
	for trial := 0; trial < 6; trial++ {
		// The lowest per-tag SNR in dB: low enough that the weakest tags
		// sit at the decision margin and fail CRC.
		set, lowest := gold, -12.0
		if trial%3 == 2 {
			set, lowest = twonc, -4
		}
		n := set.Size()
		payloads := make([][]byte, n)
		gains := make([]complex128, n)
		offsets := make([]int, n)
		for i := range payloads {
			payloads[i] = make([]byte, 6)
			rng.Read(payloads[i])
			phi := 2 * math.Pi * rng.Float64()
			gains[i] = amp(lowest+16*rng.Float64()) * complex(math.Cos(phi), math.Sin(phi))
			offsets[i] = rng.Intn(3) - 1
		}
		lead := 60 * testSPC
		cases = append(cases, collision{set, buildScenario(t, set, payloads, gains, offsets, lead, 200), lead})
	}

	failedThenMore := 0
	for ci, c := range cases {
		r, err := New(Config{Codes: c.set, SamplesPerChip: testSPC, NoiseFloorW: testNoise, SearchChips: 1, SIC: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.ReceiveAt(c.buf, c.lead)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("case %d", ci)
		ref := referenceSICFrames(r, c.buf, res.GlobalStart, res.NoiseW)
		sameFramesExact(t, label+" vs reference", ref, res.Frames, false)
		again, err := r.ReceiveAt(c.buf, c.lead)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+" rerun", res, again)
		sameFramesExact(t, label+" rerun", res.Frames, again.Frames, true)
		for i := 0; i+1 < len(res.Frames); i++ {
			if !res.Frames[i].OK && !errors.Is(res.Frames[i].Err, ErrGhost) {
				failedThenMore++
			}
		}
	}
	// Guard against the buffers drifting into a regime where nothing fails
	// and the reuse path goes untested.
	if failedThenMore == 0 {
		t.Fatal("no CRC failure was followed by another detection pass")
	}
}
