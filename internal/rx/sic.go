package rx

import (
	"errors"
	"math"
	"math/bits"

	"cbma/internal/frame"
	"cbma/internal/pn"
)

// ErrGhost marks a CRC-valid decode suppressed as a correlation ghost: its
// payload is byte-identical to a stronger user's frame. In high SNR a
// correlation receiver decodes a *copy* of a strong transmission on any
// code with non-zero cross-correlation — the bit decisions track the
// interferer's bits exactly, so even the CRC validates. Ghost frames are
// returned with OK=false and this error so callers can observe them.
var ErrGhost = errors.New("rx: duplicate-payload correlation ghost suppressed")

// receiveSIC is the successive-interference-cancellation receive path
// (Config.SIC): users are detected and decoded strongest-first; after every
// verified frame the amplitudes of all accepted users are re-estimated by a
// joint least-squares fit and subtracted from the original buffer, so each
// detection pass sees only the not-yet-decoded users plus noise. A final
// pass suppresses payload ghosts (see ErrGhost).
//
// Per-code detections are cached across passes and refreshed only when the
// residual was rebuilt: after a CRC failure or a failed solve the residual
// and its envelope are untouched, so every remaining code's detection is
// unchanged and the next pass only picks the best of the cached ones.
//
// The paper's threshold detector reports 99.9% user-detection accuracy on
// its testbed; in this simulator's richer fading the deterministic
// preamble-on-preamble leakage between Gold codes makes a single threshold
// insufficient, so the user-detection experiment enables this stage — the
// standard software-radio technique for separating colliding RFID
// transmissions (the paper's own references [29], [30]). The FER and
// power-control experiments leave it off to preserve the paper's plain
// §III-B receiver, whose near-far weakness is exactly what Algorithm 1
// addresses; the detector ablation bench quantifies the difference.
func (r *Receiver) receiveSIC(samples []complex128, res *Result, env []float64, globalStart int) {
	noiseW := res.NoiseW
	if cap(r.sicWork) < len(samples) {
		r.sicWork = make([]complex128, len(samples))
	}
	work := r.sicWork[:len(samples)]
	copy(work, samples)
	// Only sparse codes read the envelope (their lag choice, see
	// detectUser), so a dense code set neither copies nor re-derives it.
	var envWork []float64
	if r.anySparse {
		if cap(r.sicEnv) < len(env) {
			r.sicEnv = make([]float64, len(env))
		}
		envWork = r.sicEnv[:len(env)]
		copy(envWork, env)
	}

	n := r.cfg.Codes.Size()
	r.sicFit.reset(samples, r.cfg.SamplesPerChip, n)
	if cap(r.sicDets) < n {
		r.sicDets = make([]detSlot, n)
		r.sicRemaining = make([]int, 0, n)
	}
	dets := r.sicDets[:n]
	// remaining holds the not-yet-decoded code IDs in ascending order, so
	// detection ties break deterministically toward the lowest ID.
	remaining := r.sicRemaining[:n]
	for id := range remaining {
		remaining[id] = id
	}
	stale := true
	for len(remaining) > 0 {
		detSp := r.obs.Start(r.hDetect)
		if stale {
			r.detectInto(dets, remaining, envWork, work, globalStart, noiseW)
			stale = false
		}
		bestID, bestDet, found := bestDetection(dets, remaining)
		detSp.End()
		if !found {
			break
		}
		for j, id := range remaining {
			if id == bestID {
				remaining = append(remaining[:j], remaining[j+1:]...)
				break
			}
		}
		decSp := r.obs.Start(r.hDecode)
		stale = r.decodeAndCancel(work, envWork, res, bestID, bestDet)
		decSp.End()
	}
	suppressGhosts(res.Frames)
}

// decodeAndCancel decodes user id at its detection and appends the frame to
// res. When the CRC verifies it adds the user to the joint fit and, if the
// fit solves, rebuilds the working residual and its envelope with every
// accepted user cancelled. It reports whether the residual was rebuilt. A
// user whose solve fails stays in the fit: later solves include it.
func (r *Receiver) decodeAndCancel(work []complex128, envWork []float64, res *Result, id int, det detection) bool {
	f := r.decodeUser(work, id, det.lag, det.phasor)
	f.Corr = det.corr
	res.Frames = append(res.Frames, f)
	if !f.OK {
		return false // cannot reconstruct an unverified frame
	}
	frameBits, err := frame.Marshal(f.Payload, r.cfg.Frame)
	if err != nil {
		return false // cannot happen for a CRC-verified payload; fail open
	}
	fit := &r.sicFit
	fit.add(f.Lag, r.cfg.Codes.Codes[id], frameBits)
	// Joint LS fit of every accepted amplitude against the original
	// buffer, then rebuild the working residual. Per-user scalar fits
	// leave 10–30% residuals when supports overlap; the joint solve
	// drives the residual to the noise floor.
	amps, ok := solveComplex(fit.g, fit.b)
	if !ok {
		return false
	}
	copy(work, fit.x)
	for u := range amps {
		subtractWaveform(work, fit.lags[u], fit.chips[u], fit.spc, amps[u])
	}
	for i := range envWork {
		re, im := real(work[i]), imag(work[i])
		envWork[i] = math.Sqrt(re*re + im*im)
	}
	return true
}

// sicFit is the joint least-squares system G·â = b of one SIC receive,
// grown one accepted user at a time. For the unit 0/1 waveforms w_i of the
// accepted users, G[i][j] = Σ_t w_i(t)·w_j(t) counts overlapping active
// samples and b[i] = Σ_t x(t)·w_i(t) sums the original buffer over user i's
// active samples. Neither depends on later users, and the buffer, lags and
// chips are fixed for the receive, so adding a user only appends its own
// row and column: b and the diagonal from one walk of its chips, the
// off-diagonal counts as popcounts of AND-ed activity bitmasks — O(N) per
// user for an N-sample buffer. The counts are integers held in float64,
// exact in any order, and b sums in chip-then-sample order, so the system
// is the one a from-scratch build produces. All slices are receiver
// scratch, reused across receives.
type sicFit struct {
	x      []complex128 // the original buffer the fit is made against
	spc    int
	stride int // row stride of gbuf: the most users one receive can accept
	words  int // bitmask words per user
	lags   []int
	chips  [][]byte
	// masks holds user u's activity over [0,len(x)) at
	// [u*words, (u+1)*words), bit t%64 of word t/64 for sample t.
	masks []uint64
	gbuf  []float64
	g     [][]float64 // K rows of length K, views into gbuf
	b     []complex128
}

// reset empties the fit for a receive of x, sized for up to maxUsers
// accepted users.
func (f *sicFit) reset(x []complex128, spc, maxUsers int) {
	f.x, f.spc, f.stride = x, spc, maxUsers
	f.words = (len(x) + 63) / 64
	if cap(f.masks) < maxUsers*f.words {
		f.masks = make([]uint64, maxUsers*f.words)
	}
	if cap(f.gbuf) < maxUsers*maxUsers {
		f.gbuf = make([]float64, maxUsers*maxUsers)
	}
	if cap(f.g) < maxUsers {
		f.g = make([][]float64, 0, maxUsers)
		f.b = make([]complex128, 0, maxUsers)
		f.lags = make([]int, 0, maxUsers)
		f.chips = make([][]byte, maxUsers)
	}
	f.g, f.b, f.lags = f.g[:0], f.b[:0], f.lags[:0]
}

// add appends the user at lag spreading frameBits with code: it spreads the
// chips into the user's scratch slot, walks them once for b and the
// diagonal while marking the activity bitmask, and counts the overlap with
// each earlier user from the bitmasks.
//
//cbma:hotpath
func (f *sicFit) add(lag int, code pn.Code, frameBits []byte) {
	k := len(f.b)
	cl := code.Length()
	n := len(frameBits) * cl
	if cap(f.chips[k]) < n {
		f.chips[k] = make([]byte, n)
	}
	chips := f.chips[k][:n]
	for i, bit := range frameBits {
		src := code.Zero
		if bit == 1 {
			src = code.One
		}
		copy(chips[i*cl:], src)
	}
	f.chips[k] = chips

	mask := f.masks[k*f.words : (k+1)*f.words]
	clear(mask)
	var sum complex128
	var diag float64
	for c, chip := range chips {
		if chip == 0 {
			continue
		}
		base := lag + c*f.spc
		for s := 0; s < f.spc; s++ {
			t := base + s
			if t < 0 || t >= len(f.x) {
				continue
			}
			sum += f.x[t]
			diag++
			mask[t>>6] |= 1 << (t & 63)
		}
	}
	row := f.gbuf[k*f.stride : k*f.stride+k+1]
	for j := 0; j < k; j++ {
		other := f.masks[j*f.words : (j+1)*f.words]
		var overlap int
		for w, m := range mask {
			overlap += bits.OnesCount64(m & other[w])
		}
		row[j] = float64(overlap)
		f.g[j] = f.gbuf[j*f.stride : j*f.stride+k+1]
		f.g[j][k] = float64(overlap)
	}
	row[k] = diag
	f.g = f.g[:k+1]
	f.g[k] = row
	f.b = f.b[:k+1]
	f.b[k] = sum
	f.lags = f.lags[:k+1]
	f.lags[k] = lag
}

// solveComplex solves the real-symmetric system G·a = b with complex b by
// Gaussian elimination with partial pivoting. It reports false for a
// (near-)singular system.
func solveComplex(g [][]float64, b []complex128) ([]complex128, bool) {
	k := len(g)
	// Work on copies.
	m := make([][]float64, k)
	for i := range m {
		m[i] = append([]float64(nil), g[i]...)
	}
	rhs := append([]complex128(nil), b...)
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		for row := col + 1; row < k; row++ {
			if math.Abs(m[row][col]) > math.Abs(m[pivot][col]) {
				pivot = row
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := 1 / m[col][col]
		for row := col + 1; row < k; row++ {
			f := m[row][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				m[row][c] -= f * m[col][c]
			}
			rhs[row] -= complex(f, 0) * rhs[col]
		}
	}
	out := make([]complex128, k)
	for row := k - 1; row >= 0; row-- {
		acc := rhs[row]
		for c := row + 1; c < k; c++ {
			acc -= complex(m[row][c], 0) * out[c]
		}
		out[row] = acc / complex(m[row][row], 0)
	}
	return out, true
}

// subtractWaveform removes amp × the unit chip waveform from work.
//
//cbma:hotpath
func subtractWaveform(work []complex128, lag int, chips []byte, spc int, amp complex128) {
	for c, chip := range chips {
		if chip == 0 {
			continue
		}
		base := lag + c*spc
		for s := 0; s < spc; s++ {
			t := base + s
			if t < 0 || t >= len(work) {
				continue
			}
			work[t] -= amp
		}
	}
}

// suppressGhosts marks CRC-valid frames whose payload duplicates a
// stronger frame's payload (see ErrGhost). Random payloads collide with
// negligible probability, so an exact duplicate is a correlation ghost.
func suppressGhosts(frames []DecodedFrame) {
	best := make(map[string]int) // payload → index of strongest frame
	for i, f := range frames {
		if !f.OK {
			continue
		}
		key := string(f.Payload)
		j, seen := best[key]
		if !seen {
			best[key] = i
			continue
		}
		if f.Corr > frames[j].Corr {
			frames[j].OK = false
			frames[j].Err = ErrGhost
			best[key] = i
		} else {
			frames[i].OK = false
			frames[i].Err = ErrGhost
		}
	}
}
