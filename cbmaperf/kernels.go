package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cbma/internal/channel"
	"cbma/internal/dsp"
	"cbma/internal/sim"
)

// kernelStat accumulates one kernel's calls. bytes is computed, not
// measured: the samples the kernel must read and write, 16 bytes each.
type kernelStat struct {
	name   string
	calls  int
	ns     int64
	allocs uint64
	bytes  int64
}

// kernelBudget is the time the kernel pass spends per kernel, shared by
// the workload's shapes in proportion to their weight.
const kernelBudget = 250 * time.Millisecond

// kernelPass measures the round kernels on the workload's frame shapes:
// real tags from sim.NewEngine(...).Tags() synthesize their waveforms
// (tag.WaveformInto), each is delayed by a fractional sample
// (dsp.FractionalDelayInPlace), the gained sum gets channel noise
// (channel.AWGN), and the engine's receiver decodes the mix
// (rx.Receiver.ReceiveAt). Each distinct shape counts once per scenario
// that has it, so the figures follow the workload's mix.
func kernelPass(scenarios []sim.Scenario) ([]*kernelStat, error) {
	stats := []*kernelStat{
		{name: "tag.waveform_into"},
		{name: "dsp.fractional_delay"},
		{name: "channel.awgn"},
		{name: "rx.receive_at"},
	}
	type shape struct {
		tags, payload, spc int
		sic                bool
		degree             uint
		family             int
	}
	shapeOf := func(scn sim.Scenario) shape {
		return shape{scn.NumTags, scn.PayloadBytes, scn.SamplesPerChip(), scn.SIC, scn.GoldDegree, int(scn.Family)}
	}
	weight := map[shape]int{}
	var order []sim.Scenario
	for _, scn := range scenarios {
		k := shapeOf(scn)
		if weight[k] == 0 {
			order = append(order, scn)
		}
		weight[k]++
	}
	for _, scn := range order {
		budget := kernelBudget * time.Duration(weight[shapeOf(scn)]) / time.Duration(len(scenarios))
		if err := kernelShape(scn, budget, stats); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

func kernelShape(scn sim.Scenario, budget time.Duration, stats []*kernelStat) error {
	scn.Obs = nil
	e, err := sim.NewEngine(scn)
	if err != nil {
		return fmt.Errorf("kernel pass: %w", err)
	}
	tags := e.Tags()
	recv := e.Receiver()
	spc := scn.SamplesPerChip()
	chips := recv.Config().Codes.ChipLength()
	// The engine's noise lead before the nominal reply start.
	lead := max(256, 6*chips*spc)
	rng := rand.New(rand.NewSource(scn.Seed))
	payloads := make([][]byte, len(tags))
	waves := make([][]complex128, len(tags))
	for i := range tags {
		payloads[i] = make([]byte, scn.PayloadBytes)
		rng.Read(payloads[i])
		if waves[i], err = tags[i].WaveformInto(nil, payloads[i]); err != nil {
			return err
		}
	}
	n := len(waves[0])
	mix := make([]complex128, lead+n+spc+2*chips*spc)
	noise := scn.Channel.NoiseFloorW()

	timeKernel(stats[0], budget, len(tags), int64(16*n*len(tags)), func() {
		for i, tg := range tags {
			waves[i], _ = tg.WaveformInto(waves[i], payloads[i])
		}
	})
	scratch := make([]complex128, n)
	timeKernel(stats[1], budget, 1, int64(2*16*n), func() {
		dsp.FractionalDelayInPlace(scratch, 0.37)
	})
	noiseBuf := make([]complex128, len(mix))
	timeKernel(stats[2], budget, 1, int64(2*16*len(mix)), func() {
		channel.AWGN(rng, noiseBuf, noise)
	})

	// A realistic mix for the receiver: fresh waveforms with the engine's
	// jitter model (±0.2 chip), per-tag channel draws, then noise.
	for i, tg := range tags {
		w, err := tg.WaveformInto(waves[i], payloads[i])
		if err != nil {
			return err
		}
		d := 0.4 * rng.Float64() * float64(spc)
		off := int(d)
		dsp.FractionalDelayInPlace(w, d-float64(off))
		dg, err := tg.DeltaGamma()
		if err != nil {
			return err
		}
		link := scn.Channel.DrawLink(scn.Deployment.ES, tg.Position(), scn.Deployment.RX, dg, rng)
		for j, v := range w {
			mix[lead+off+j] += v * link.Gain
		}
	}
	channel.AWGN(rng, mix, noise)
	in := make([]complex128, len(mix))
	st := stats[3]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var spent time.Duration
	calls := 0
	for spent < budget || calls < 3 {
		copy(in, mix) // the SIC receiver cancels in place
		t0 := time.Now()
		if _, err := recv.ReceiveAt(in, lead); err != nil {
			return fmt.Errorf("kernel pass: ReceiveAt: %w", err)
		}
		spent += time.Since(t0)
		calls++
	}
	runtime.ReadMemStats(&m1)
	st.calls += calls
	st.ns += spent.Nanoseconds()
	st.allocs += m1.Mallocs - m0.Mallocs
	st.bytes += int64(calls) * int64(16*len(mix))
	return nil
}

// timeKernel calls f until budget has elapsed (at least three times);
// each call of f makes perCall kernel calls moving bytesPer computed bytes.
func timeKernel(st *kernelStat, budget time.Duration, perCall int, bytesPer int64, f func()) {
	f() // first call outside the timing: buffers reach their size
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	calls := 0
	for time.Since(t0) < budget || calls < 3 {
		f()
		calls++
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	st.calls += calls * perCall
	st.ns += d.Nanoseconds()
	st.allocs += m1.Mallocs - m0.Mallocs
	st.bytes += int64(calls) * bytesPer
}
