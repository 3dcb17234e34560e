package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/fault"
	"cbma/internal/pn"
	"cbma/internal/rx"
	"cbma/internal/tag"
	"cbma/internal/trace"
)

// This file is the staged round pipeline. One collision round runs as three
// stages with isolated state:
//
//	buildTransmissions  tags + RNG streams -> per-tag transmission records
//	mixChannel          records + links    -> one received I/Q buffer
//	decodeAndAck        receiver + payload matching -> roundResult
//
// No per-tag waveform is materialized. A transmission record (tagTx) holds
// a tag's frame bits, placement, fractional delay, CFO rotation and
// energy-outage cut; mixChannel realizes the tag's link and hands both to
// mixTag, which walks frame bits × code chips and writes the gained,
// delayed samples straight into the mixing buffer.
//
// The first two stages are pure with respect to engine state: they read the
// scenario and tag configuration and write only into the caller's
// roundBuffers scratch. decodeAndAck needs a receiver (workers own clones)
// but also mutates nothing on the engine; the only engine-state mutations
// of a round — tag ACK counters and trace recording — are deferred to
// Engine.commitRound so parallel workers can execute rounds out of order
// while feedback and recording stay in round order.

// roundBuffers is one worker's reusable scratch: one transmission record
// per active-tag slot (its payload storage reused across rounds), mixTag's
// templates, the worker's RNG stream pool, and — for the length of one
// round — the mixing buffer. Each pooled generator carries a ~5 KB source;
// reusing them removes the dominant per-round allocations.
type roundBuffers struct {
	txs []tagTx
	// mix is borrowed from mixPool by mixFor and handed back by
	// releaseMix; nil between rounds.
	mix *mixBuf
	// tpl and runs hold mixTag's two per-bit sample templates and their
	// nonzero runs.
	tpl  []complex128
	runs []int
	rngs streamPool
}

// mixBuf holds one mixing buffer.
type mixBuf struct{ s []complex128 }

// mixPool shares mixing buffers across every worker of every engine. The
// buffer is tens of thousands of samples; a campaign builds an engine and
// a roundBuffers per round worker for each point, and scratch that lived
// as long as its roundBuffers made these buffers most of the bytes a short
// point allocated.
var mixPool = sync.Pool{New: func() any { return new(mixBuf) }}

// grow sizes the per-slot records for n active tags, retaining previously
// allocated payload storage.
func (rb *roundBuffers) grow(n int) {
	if cap(rb.txs) < n {
		txs := make([]tagTx, n)
		copy(txs, rb.txs)
		rb.txs = txs
	}
	rb.txs = rb.txs[:n]
}

// streams returns the stream node of one round, drawing from the worker's
// pool.
func (rb *roundBuffers) streams(seed int64, runSeq, phase, round uint64) *roundStreams {
	return &roundStreams{seed: seed, runSeq: runSeq, phase: phase, round: round, pool: &rb.rngs}
}

// mixFor borrows a mixing buffer for the round and returns it zeroed at
// length n. Zeroing makes a buffer left by any other round, of any length,
// as good as a fresh one.
func (rb *roundBuffers) mixFor(n int) []complex128 {
	if rb.mix == nil {
		rb.mix = mixPool.Get().(*mixBuf)
	}
	m := rb.mix
	if cap(m.s) < n {
		m.s = make([]complex128, n)
	}
	m.s = m.s[:n]
	clear(m.s)
	return m.s
}

// releaseMix hands the round's mixing buffer back to mixPool once nothing
// reads it any more.
func (rb *roundBuffers) releaseMix() {
	if rb.mix != nil {
		mixPool.Put(rb.mix)
		rb.mix = nil
	}
}

// tagTx is one tag's transmission in closed form — what mixTag needs to
// synthesize its samples — plus the tag's per-round bookkeeping.
type tagTx struct {
	payload []byte
	// bits is the frame before spreading; code spreads it (bit 1 → One,
	// bit 0 → Zero) at spc samples per chip.
	bits []byte
	code pn.Code
	spc  int
	// delay is the raw delay in samples before re-referencing, kept for
	// trace recording. offset and frac split the re-referenced delay into
	// the integer placement relative to the nominal frame start and the
	// sub-sample delay (0 when ≤ 1e-9).
	delay  float64
	offset int
	frac   float64
	// rot is the per-sample CFO phase rotation, 0 when CFO is off.
	rot complex128
	// n is the frame length in samples. Samples from cut on are silent (a
	// mid-frame energy outage); cut == n otherwise.
	n, cut int
	// gain is the realized link gain, set by mixChannel.
	gain complex128
}

// transmissionSet is the output of buildTransmissions: the active tags and
// their transmission records, backed by roundBuffers storage.
type transmissionSet struct {
	active []*tag.Tag
	txs    []tagTx
	// maxEnd is the last occupied sample index relative to the lead region.
	maxEnd int
}

// roundResult captures one collision round.
type roundResult struct {
	sent         int // frames transmitted (== active tags)
	delivered    int // frames decoded with correct payload and CRC
	falsePos     int // decoded-OK frames whose payload did not match
	samples      int // buffer length, for airtime accounting
	frames       []rx.DecodedFrame
	sentIDs      []int
	deliveredIDs []int
	detectedIDs  []int
	// acked indexes into the round's active slice: tags whose ACK survived
	// the downlink loss draw. Applied to tag state by Engine.commitRound.
	acked []int
	// recorded carries the round's trace samples when recording is on.
	recorded []trace.TagSample
	// quarantined marks a round abandoned by the resilient runner (panic or
	// exhausted transient retries): it contributes degradation accounting
	// but no frame counters or tag feedback. retries counts the attempts
	// beyond the first; faults the injected faults that fired.
	quarantined bool
	retries     int
	faults      fault.Counters
}

// resilience converts only the round's degradation accounting into a
// Metrics partial — what the exploration (adhoc) rounds contribute, since
// their frame counters are warm-up, not measurement.
func (r roundResult) resilience() Metrics {
	m := Metrics{RoundRetries: r.retries, Faults: r.faults}
	if r.quarantined {
		m.RoundsQuarantined = 1
	} else {
		m.RoundsExecuted = 1
	}
	return m
}

// metrics converts the round's counters into a mergeable Metrics partial
// (see Metrics.Merge); numTags sizes the per-tag slices. A quarantined
// round carries only its degradation accounting.
func (r roundResult) metrics(numTags int) Metrics {
	m := r.resilience()
	m.NumTags = numTags
	if r.quarantined {
		return m
	}
	m.FramesSent = r.sent
	m.FramesDetected = len(r.detectedIDs)
	m.FramesDelivered = r.delivered
	m.FalseFrames = r.falsePos
	m.AirtimeSamples = int64(r.samples)
	m.PerTagSent = make([]int, numTags)
	m.PerTagDelivered = make([]int, numTags)
	for _, id := range r.sentIDs {
		if id >= 0 && id < numTags {
			m.PerTagSent[id]++
		}
	}
	for _, id := range r.deliveredIDs {
		if id >= 0 && id < numTags {
			m.PerTagDelivered[id]++
		}
	}
	return m
}

// executeRound runs the full stage pipeline for one round using the given
// RNG streams, scratch and receiver. It does not mutate engine or tag
// state; callers must follow up with Engine.commitRound.
//
//cbma:hotpath
func (e *Engine) executeRound(active []*tag.Tag, rs *roundStreams, rb *roundBuffers, recv *rx.Receiver) (roundResult, error) {
	var res roundResult
	if len(active) == 0 {
		return res, ErrBadTagCount
	}
	// Trace replay substitutes the recorded delays before waveform
	// placement and the recorded gains during mixing. The player is
	// stateful and ordered, so replay runs only on the serial path (see
	// Engine.workerCount).
	var replay *trace.Round
	if e.player != nil {
		r, err := e.player.Next()
		if err != nil {
			return res, fmt.Errorf("sim: replaying round: %w", err)
		}
		replay = &r
	}
	// Stage spans are obs.Span values on the observer's injected clock:
	// allocation-free (hotpath-compatible) and invisible to the result path.
	var fc fault.Counters
	sp := e.eobs.o.Start(e.eobs.build)
	tx, err := e.buildTransmissions(active, rs, rb, replay, &fc)
	sp.End()
	if err != nil {
		return res, err
	}
	sp = e.eobs.o.Start(e.eobs.mix)
	buf, recorded, err := e.mixChannel(tx, rs, rb, replay, &fc)
	sp.End()
	if err != nil {
		rb.releaseMix()
		return res, err
	}
	sp = e.eobs.o.Start(e.eobs.decode)
	res, err = e.decodeAndAck(recv, buf, tx, rs, &fc)
	sp.End()
	rb.releaseMix()
	res.recorded = recorded
	res.faults = fc
	return res, err
}

// buildTransmissions is the pure transmit stage: it draws each active
// tag's clock jitter, payload, CFO and energy outage, and records the
// tag's transmission for mixTag. All storage comes from rb.
//
//cbma:hotpath
func (e *Engine) buildTransmissions(active []*tag.Tag, rs *roundStreams, rb *roundBuffers, replay *trace.Round, fc *fault.Counters) (transmissionSet, error) {
	spc := e.scn.SamplesPerChip()
	rb.grow(len(active))
	tx := transmissionSet{active: active, txs: rb.txs}
	minDelay := math.Inf(1)
	jitter := rs.rng(StreamJitter)
	// Tag-layer fault draws (extra jitter, energy outages) come from the
	// round's dedicated fault stream, in tag order: jitter draws in this
	// loop, outage draws in the record loop below.
	var ftag *rand.Rand
	if e.inj != nil && e.inj.TagRoundFaults() {
		ftag = rs.rng(StreamFaultTag)
	}
	for i, tg := range active {
		// Per-tag clock offset: fixed extra delay (Fig. 11) plus uniform
		// jitter, in (fractional) samples.
		delayChips := e.scn.JitterChips * (jitter.Float64() - 0.5)
		if tg.ID() < len(e.scn.ExtraDelayChips) {
			delayChips += e.scn.ExtraDelayChips[tg.ID()]
		}
		if e.inj != nil {
			delayChips += e.inj.DriftChips(tg.ID())
			if ftag != nil {
				delayChips += e.inj.ExtraJitter(ftag)
			}
		}
		tx.txs[i].delay = delayChips * float64(spc)
		if tx.txs[i].delay < minDelay {
			minDelay = tx.txs[i].delay
		}
	}
	if replay != nil {
		minDelay = math.Inf(1)
		for i, tg := range active {
			s, ok := replay.Sample(tg.ID())
			if !ok {
				return tx, fmt.Errorf("sim: %w: tag %d absent in round %d",
					trace.ErrTagCount, tg.ID(), replay.Seq)
			}
			tx.txs[i].delay = s.DelayChips * float64(spc)
			if tx.txs[i].delay < minDelay {
				minDelay = tx.txs[i].delay
			}
		}
	}
	payload := rs.rng(StreamPayload)
	var cfo *roundStreams
	if e.scn.CFOppm != 0 {
		cfo = rs
	}
	for i, tg := range active {
		t := &tx.txs[i]
		if cap(t.payload) < e.scn.PayloadBytes {
			t.payload = make([]byte, e.scn.PayloadBytes)
		}
		t.payload = t.payload[:e.scn.PayloadBytes]
		payload.Read(t.payload)
		bits, err := tg.FrameBits(t.payload)
		if err != nil {
			return tx, err
		}
		t.bits = bits
		t.code = tg.Code()
		t.spc = spc
		t.n = len(bits) * t.code.Length() * spc
		t.cut = t.n
		// Re-reference delays to the earliest tag so none is clamped, then
		// split into an integer placement offset and a fractional-sample
		// delay. The fractional part is what starves the decoder at low
		// oversampling (Fig. 9(a)): at one sample per chip a 0.2-chip skew
		// cannot be re-aligned.
		d := t.delay - minDelay
		t.offset = int(d)
		t.frac = d - float64(t.offset)
		if t.frac <= 1e-9 {
			t.frac = 0
		}
		t.rot = 0
		if cfo != nil {
			// Per-frame CFO draw: a uniform offset of ±CFOppm of the
			// carrier, as a per-sample baseband phase ramp.
			dfHz := e.scn.Channel.CarrierHz * e.scn.CFOppm / 1e6 * (2*cfo.rng(StreamCFO).Float64() - 1)
			step := 2 * math.Pi * dfHz / e.scn.SampleRateHz
			t.rot = complex(math.Cos(step), math.Sin(step))
		}
		if ftag != nil {
			// Mid-frame energy outage: the harvested supply dies after a
			// drawn fraction of the frame and the reflection goes silent.
			if frac, hit := e.inj.EnergyOutage(ftag); hit {
				t.cut = int(frac * float64(t.n))
				fc.EnergyOutages++
			}
		}
		if end := e.leadSamples + t.offset + t.n; end > tx.maxEnd {
			tx.maxEnd = end
		}
	}
	return tx, nil
}

// mixChannel is the pure channel stage: it realizes each tag's link,
// accumulates the tags' frames into one I/Q buffer through mixTag, and
// applies the shared channel effects (excitation gating, multipath,
// interference, AWGN). It returns the received buffer and, when recording
// is enabled, the round's trace samples.
//
//cbma:hotpath
func (e *Engine) mixChannel(tx transmissionSet, rs *roundStreams, rb *roundBuffers, replay *trace.Round, fc *fault.Counters) ([]complex128, []trace.TagSample, error) {
	spc := e.scn.SamplesPerChip()
	tail := 2 * e.set.ChipLength() * spc
	buf := rb.mixFor(tx.maxEnd + tail)

	// Optional intermittent (OFDM) excitation gate, shared by all tags:
	// they all reflect the same exciter.
	var gate []float64
	if e.scn.OFDMExcitation {
		gate = channel.ExcitationGate(rs.rng(StreamExcitation), len(buf), e.scn.SampleRateHz, 2e-3, 1e-3)
	}

	// Channel-layer fault draws (deep fades in tag order, then the burst)
	// come from the round's dedicated fault stream.
	var fch *rand.Rand
	if e.inj != nil && e.inj.ChannelRoundFaults() {
		fch = rs.rng(StreamFaultChannel)
	}

	for i, tg := range tx.active {
		dg, err := tg.DeltaGamma()
		if err != nil {
			return nil, nil, err
		}
		var link channel.Link
		switch {
		case replay != nil:
			s, _ := replay.Sample(tg.ID())
			link = channel.Link{Gain: complex(s.GainRe, s.GainIm)}
		case e.scn.StaticChannel:
			link = e.scn.Channel.LinkWithFading(
				e.scn.Deployment.ES, tg.Position(), e.scn.Deployment.RX, dg,
				e.staticFading[tg.ID()])
		default:
			link = e.scn.Channel.DrawLink(
				e.scn.Deployment.ES, tg.Position(), e.scn.Deployment.RX, dg, rs.rng(StreamFading))
		}
		if fch != nil {
			if scale, hit := e.inj.DeepFade(fch); hit {
				link.Gain *= complex(scale, 0)
				fc.DeepFades++
			}
		}
		t := &tx.txs[i]
		t.gain = link.Gain
		lo, hi := e.leadSamples+t.offset, e.leadSamples+t.offset+t.n
		var g []float64
		if gate != nil {
			g = gate[lo:hi]
		}
		rb.mixTag(buf[lo:hi], t, g)
	}

	if e.scn.Multipath != nil {
		buf = e.scn.Multipath.Apply(rs.rng(StreamMultipath), buf, e.scn.SampleRateHz)
	}
	for _, intf := range e.scn.Interferers {
		intf.Apply(rs.rng(StreamInterference), buf, e.scn.SampleRateHz)
	}
	if fch != nil && e.inj.Burst(fch) {
		e.inj.ApplyBurst(fch, buf, e.scn.SampleRateHz)
		fc.Bursts++
	}
	channel.AWGN(rs.rng(StreamNoise), buf, e.scn.Channel.NoiseFloorW())
	var recorded []trace.TagSample
	if e.recorder != nil {
		recorded = traceSamples(tx, spc)
	}
	return buf, recorded, nil
}

// mixTag accumulates one tag's frame into dst, the mixing buffer from the
// tag's placement on (gate, when non-nil, is aligned with dst), without
// materializing its waveform. Its samples are bit-identical to the chain
// WaveformInto → FractionalDelayInPlace → CFO ramp → outage zeroing →
// ×gain → ×gate → accumulate:
//
//   - A delayed OOK sample depends only on its chip and the previous
//     sample's chip, so it takes one of four levels, each evaluated once
//     with dsp.LerpDelay (FractionalDelayInPlace's expression) and, off
//     the CFO path, multiplied by the gain once.
//   - On the plain path (no CFO, no gate) every sample of a bit but its
//     first is fixed by the bit's code chips alone, so the walk adds one of
//     two precomputed bit templates (rb.tpl) per frame bit, over the
//     template's nonzero runs.
//   - The CFO and gate paths walk chip by chip, per sample, in the chain's
//     operation order: level×phasor, ×gain, ×gate.
//   - Adding an exactly-zero contribution never changes an entry (entries
//     start at +0, and a sum of finite values is −0 only if both addends
//     are), so zeros may be added or skipped. The walk stops at the
//     outage cut.
//
//cbma:hotpath
func (rb *roundBuffers) mixTag(dst []complex128, t *tagTx, gate []float64) {
	var lv [2][2]complex128 // lv[chip][previous sample's chip]
	for c := range lv {
		for p := range lv[c] {
			x := complex(float64(c), 0)
			if t.frac > 0 {
				x = dsp.LerpDelay(x, complex(float64(p), 0), t.frac)
			}
			if t.rot == 0 {
				x *= t.gain
			}
			lv[c][p] = x
		}
	}
	if t.rot != 0 || gate != nil {
		mixTagSamples(dst, t, gate, &lv)
		return
	}
	span := t.code.Length() * t.spc
	if cap(rb.tpl) < 2*span {
		rb.tpl = make([]complex128, 2*span)
		rb.runs = make([]int, 2*(span+1))
	}
	// Each template lists its nonzero runs as [start, end) pairs, so the
	// adds skip the silent stretches of OOK chips.
	var tpl [2][]complex128
	var runs [2][]int
	for b, chips := range [2][]byte{t.code.Zero, t.code.One} {
		row := rb.tpl[b*span : (b+1)*span]
		prev := chips[0] // the first sample is added per bit, below
		for m, c := range chips {
			row[m*t.spc] = lv[c][prev]
			for i := m*t.spc + 1; i < (m+1)*t.spc; i++ {
				row[i] = lv[c][c]
			}
			prev = c
		}
		r := rb.runs[b*(span+1) : (b+1)*(span+1)]
		nr := 0
		for i := 1; i < span; {
			for i < span && row[i] == 0 {
				i++
			}
			start := i
			for i < span && row[i] != 0 {
				i++
			}
			if i > start {
				r[nr], r[nr+1] = start, i
				nr += 2
			}
		}
		tpl[b], runs[b] = row, r[:nr]
	}
	prev := byte(0)
	for i, k := 0, 0; i < len(t.bits) && k < t.cut; i, k = i+1, k+span {
		b, chips := 0, t.code.Zero
		if t.bits[i] == 1 {
			b, chips = 1, t.code.One
		}
		dst[k] += lv[chips[0]][prev]
		n := min(span, t.cut-k)
		for r := 0; r < len(runs[b]) && runs[b][r] < n; r += 2 {
			start, end := runs[b][r], min(runs[b][r+1], n)
			seg, src := dst[k+start:k+end], tpl[b][start:end]
			for j, v := range src {
				seg[j] += v
			}
		}
		prev = chips[len(chips)-1]
	}
}

// mixTagSamples is mixTag's per-sample walk for the CFO and gate paths;
// lv holds the delayed levels, gained unless the CFO path is on.
//
//cbma:hotpath
func mixTagSamples(dst []complex128, t *tagTx, gate []float64, lv *[2][2]complex128) {
	phasor := complex(1, 0)
	k, prev := 0, byte(0)
	for _, b := range t.bits {
		chips := t.code.Zero
		if b == 1 {
			chips = t.code.One
		}
		for _, c := range chips {
			if k >= t.cut {
				return
			}
			end := min(k+t.spc, t.cut)
			for i := k; i < end; i++ {
				v := lv[c][c]
				if i == k {
					v = lv[c][prev]
				}
				if t.rot != 0 {
					if v != 0 {
						v = v * phasor * t.gain
					}
					phasor *= t.rot
				}
				if v == 0 {
					continue
				}
				if gate != nil {
					v *= complex(gate[i], 0)
				}
				dst[i] += v
			}
			prev = c
			k += t.spc
		}
	}
}

// traceSamples snapshots the round's per-tag channel draws for the
// recorder, off the hot path (it runs only when recording is on). It
// allocates a fresh slice per round deliberately: parallel execution
// buffers whole roundResults until the in-order commit, so recorded
// samples must not alias reusable worker scratch.
func traceSamples(tx transmissionSet, spc int) []trace.TagSample {
	samples := make([]trace.TagSample, len(tx.active))
	for i, tg := range tx.active {
		samples[i] = trace.TagSample{
			TagID:      tg.ID(),
			GainRe:     real(tx.txs[i].gain),
			GainIm:     imag(tx.txs[i].gain),
			DelayChips: tx.txs[i].delay / float64(spc),
			Impedance:  int(tg.Impedance()),
		}
	}
	return samples
}

// decodeAndAck is the receive stage: it runs the receiver over the mixed
// buffer, verifies payloads against the transmissions, and draws the ACK
// downlink losses. The resulting ACKs are reported in roundResult.acked
// rather than applied, keeping the stage free of tag mutation.
func (e *Engine) decodeAndAck(recv *rx.Receiver, buf []complex128, tx transmissionSet, rs *roundStreams, fc *fault.Counters) (roundResult, error) {
	var res roundResult
	// The engine is also the reader: it triggered the tags, so it knows
	// the nominal reply start (rx.ReceiveAt's timing reference).
	out, err := recv.ReceiveAt(buf, e.leadSamples)
	if err != nil {
		return res, err
	}
	res.sent = len(tx.active)
	res.samples = len(buf)
	res.frames = out.Frames
	for _, f := range out.Frames {
		for _, tg := range tx.active {
			if tg.ID() == f.TagID {
				res.detectedIDs = append(res.detectedIDs, f.TagID)
				break
			}
		}
	}
	for _, tg := range tx.active {
		res.sentIDs = append(res.sentIDs, tg.ID())
	}
	for _, f := range out.Frames {
		if !f.OK {
			continue
		}
		idx := -1
		for i, tg := range tx.active {
			if tg.ID() == f.TagID {
				idx = i
				break
			}
		}
		if idx < 0 {
			res.falsePos++
			continue
		}
		if bytes.Equal(f.Payload, tx.txs[idx].payload) {
			res.delivered++
			res.deliveredIDs = append(res.deliveredIDs, tx.active[idx].ID())
			// The ACK downlink may itself be lossy (Scenario.AckLossProb);
			// receiver-side delivery metrics are unaffected, only the
			// tag's feedback loop is starved. The fault layer's feedback
			// faults (loss, corruption) ride on top, drawn per delivered
			// frame in frame order from the dedicated fault stream.
			if e.scn.AckLossProb <= 0 || rs.rng(StreamAckLoss).Float64() >= e.scn.AckLossProb {
				heard := true
				if e.inj != nil && e.inj.AckFaults() {
					switch e.inj.AckFate(rs.rng(StreamFaultAck)) {
					case fault.AckLost:
						heard = false
						fc.AcksLost++
					case fault.AckCorrupted:
						heard = false
						fc.AcksCorrupted++
					}
				}
				if heard {
					res.acked = append(res.acked, idx)
				}
			}
		} else {
			res.falsePos++
		}
	}
	// Spurious ACKs: each tag that did not hear a (real) ACK this round may
	// falsely detect one, poisoning the feedback loop in the optimistic
	// direction. Drawn in active order after the per-frame fates, so the
	// fault stream's consumption is position-independent.
	if e.inj != nil && e.inj.SpuriousAcks() {
		srng := rs.rng(StreamFaultAck)
		heard := make([]bool, len(tx.active))
		for _, idx := range res.acked {
			heard[idx] = true
		}
		for idx := range tx.active {
			if !heard[idx] && e.inj.SpuriousAck(srng) {
				res.acked = append(res.acked, idx)
				fc.SpuriousAcks++
			}
		}
	}
	return res, nil
}

// commitRound applies the round's engine-state mutations — the tags' MAC
// counters and trace recording. Under parallel execution it is called in
// round order by the coordinating goroutine, so tag feedback and recorded
// traces are identical to the serial loop's. A quarantined round commits no
// tag feedback (its frames never aired) but still records an empty trace
// round so the trace's Seq numbering stays aligned with the round index.
func (e *Engine) commitRound(active []*tag.Tag, res roundResult) {
	if !res.quarantined {
		for _, tg := range active {
			tg.NoteFrameSent()
		}
		for _, idx := range res.acked {
			active[idx].NoteAck()
		}
	}
	if e.recorder != nil {
		e.recorder.Record(res.recorded)
	}
	round := e.committed
	e.committed++
	e.eobs.record(round, res)
}
