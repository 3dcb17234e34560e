// Command cbmasim runs one CBMA scenario from command-line flags and prints
// its metrics — the interactive front door to the simulator.
//
//	cbmasim -tags 5 -family 2nc -distance 2 -packets 300
//	cbmasim -tags 4 -power-control -random-impedance
//	cbmasim -tags 3 -interference wifi
//	cbmasim -tags 3 -fault "ack-loss=0.2,outage=0.05,panic=0.01"
//	cbmasim -tags 3 -power-control -random-impedance -fault-sweep ack-loss
//
// SIGINT (Ctrl-C) cancels the run cooperatively: the metrics collected up
// to the interruption are flushed (marked "interrupted") before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"cbma"
	"cbma/internal/obs"
	"cbma/internal/pn"
	"cbma/internal/serve/shard"
	"cbma/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cbmasim:", err)
		os.Exit(1)
	}
}

// parseFaultProfile builds a fault profile from a comma-separated k=v spec,
// e.g. "ack-loss=0.2,stuck=0.1,retries=3". Unknown keys are an error so
// typos fail loudly instead of silently injecting nothing.
func parseFaultProfile(spec string) (*cbma.FaultProfile, error) {
	var p cbma.FaultProfile
	floats := map[string]*float64{
		"stuck":        &p.StuckImpedanceProb,
		"drift-chips":  &p.ClockDriftChips,
		"jitter-chips": &p.ExtraJitterChips,
		"outage":       &p.EnergyOutageProb,
		"ack-loss":     &p.AckLossProb,
		"ack-corrupt":  &p.AckCorruptProb,
		"spurious-ack": &p.SpuriousAckProb,
		"burst":        &p.BurstProb,
		"burst-dbm":    &p.BurstPowerDBm,
		"burst-sec":    &p.BurstMeanSec,
		"fade":         &p.DeepFadeProb,
		"fade-db":      &p.DeepFadeDB,
		"panic":        &p.PanicProb,
		"transient":    &p.TransientErrProb,
	}
	ints := map[string]*int{
		"feedback-retries": &p.FeedbackRetries,
		"fallback-state":   &p.FallbackImpedance,
		"retries":          &p.MaxRoundRetries,
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if dst, found := floats[key]; found {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %v", key, err)
			}
			*dst = f
			continue
		}
		if dst, found := ints[key]; found {
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %v", key, err)
			}
			*dst = n
			continue
		}
		return nil, fmt.Errorf("fault: unknown key %q", key)
	}
	return &p, nil
}

// parseRates parses the comma-separated -sweep-rates list.
func parseRates(spec string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep-rates: %v", err)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, errors.New("sweep-rates: no rates given")
	}
	return out, nil
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cbmasim", flag.ContinueOnError)
	var (
		tags        = fs.Int("tags", 2, "concurrent tags")
		family      = fs.String("family", "gold", "code family: gold, 2nc, walsh, kasami")
		distance    = fs.Float64("distance", 1.0, "tag-to-receiver distance (m)")
		packets     = fs.Int("packets", 200, "collision rounds")
		payload     = fs.Int("payload", 16, "payload bytes per frame")
		bitrate     = fs.Float64("bitrate", 1e6, "on-air bit rate (bps)")
		txPower     = fs.Float64("tx-power", 20, "excitation power (dBm)")
		preamble    = fs.Int("preamble", 8, "preamble length (bits)")
		seed        = fs.Int64("seed", 1, "random seed")
		pc          = fs.Bool("power-control", false, "enable the Algorithm 1 loop")
		randImp     = fs.Bool("random-impedance", false, "boot tags in random impedance states")
		nodeSel     = fs.Bool("node-selection", false, "enable §V-C node selection")
		sic         = fs.Bool("sic", false, "enable successive interference cancellation")
		interf      = fs.String("interference", "", "interference: '', wifi, bluetooth, ofdm")
		perTag      = fs.Bool("per-tag", false, "print per-tag delivery ratios")
		record      = fs.String("record", "", "write a channel trace to this file (§VIII-C emulation)")
		replay      = fs.String("replay", "", "replay a channel trace from this file instead of live draws")
		cfo         = fs.Float64("cfo-ppm", 0, "per-tag carrier frequency offset (± ppm)")
		tracking    = fs.Bool("phase-tracking", false, "enable decision-directed phase tracking")
		faultSpec   = fs.String("fault", "", "fault profile as k=v pairs: stuck, drift-chips, jitter-chips, outage, ack-loss, ack-corrupt, spurious-ack, feedback-retries, fallback-state, burst, burst-dbm, burst-sec, fade, fade-db, panic, transient, retries")
		faultSweep  = fs.String("fault-sweep", "", "sweep a fault knob over -sweep-rates: ack-loss or outage")
		sweepRates  = fs.String("sweep-rates", "0,0.1,0.2,0.3,0.4,0.5", "comma-separated rates for -fault-sweep")
		obsOn       = fs.Bool("obs", false, "enable telemetry: stage timings, JSONL events and a run manifest under -obs-out")
		obsOut      = fs.String("obs-out", "obs", "directory for events.jsonl and manifest.json (with -obs)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
		shards      = fs.Int("shards", 0, "run as a sharded campaign across this many worker processes (0 disables; implies crash-tolerant dispatch)")
		resume      = fs.String("resume", "", "journal directory for checkpointed, resumable execution (implies -shards 1 when -shards is unset)")
		shardWorker = fs.Bool("shard-worker", false, "internal: serve one shard assignment on stdin/stdout and exit (spawned by the coordinator)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shardWorker {
		// Worker mode: this process IS the subprocess transport's far end.
		// Everything it needs arrives on stdin; flags beyond this one are
		// ignored by construction (the coordinator passes none).
		return shard.ServeWorker(ctx, os.Stdin, os.Stdout, nil)
	}

	fam, err := pn.ParseFamily(*family)
	if err != nil {
		return err
	}
	scn := cbma.DefaultScenario()
	scn.Seed = *seed
	scn.NumTags = *tags
	scn.Family = fam
	scn.TagLineDistance = *distance
	scn.Packets = *packets
	scn.PayloadBytes = *payload
	scn.ChipRateHz = *bitrate
	scn.Channel.TxPowerDBm = *txPower
	scn.Frame.PreambleBits = *preamble
	scn.PowerControl = *pc
	scn.RandomInitialImpedance = *randImp
	scn.SIC = *sic
	switch *interf {
	case "":
	case "wifi":
		scn.Interferers = []cbma.Interferer{{WiFi: &cbma.WiFiInterferer{PowerDBm: scn.Channel.NoiseFloorDBm + 14}}}
	case "bluetooth":
		scn.Interferers = []cbma.Interferer{{Bluetooth: &cbma.BluetoothInterferer{PowerDBm: scn.Channel.NoiseFloorDBm + 14}}}
	case "ofdm":
		scn.OFDMExcitation = true
	default:
		return fmt.Errorf("unknown interference %q", *interf)
	}

	scn.CFOppm = *cfo
	scn.PhaseTracking = *tracking
	if *faultSpec != "" {
		prof, err := parseFaultProfile(*faultSpec)
		if err != nil {
			return err
		}
		scn.Fault = prof
	}

	// Sharded execution: the run becomes a campaign through the
	// crash-tolerant coordinator, executed by worker processes that re-exec
	// this binary with -shard-worker. Features that live in the System layer
	// or do not survive the JSON wire cannot cross the process boundary and
	// are refused up front.
	shardN := *shards
	if shardN == 0 && *resume != "" {
		shardN = 1 // -resume alone still wants journaled, resumable dispatch
	}
	if shardN > 0 {
		switch {
		case *record != "" || *replay != "":
			return errors.New("-shards/-resume is incompatible with -record/-replay (traces do not cross the worker boundary)")
		case *nodeSel:
			return errors.New("-shards/-resume is incompatible with -node-selection (a per-System feature)")
		case *interf == "wifi" || *interf == "bluetooth":
			return fmt.Errorf("-shards/-resume is incompatible with -interference %s (interferer models are not JSON-wireable)", *interf)
		}
	}

	// Telemetry is assembled here, the composition root: the wall clock is
	// captured once (obs.SystemClock) and injected; nothing below main reads
	// time directly. With -obs the run streams JSONL events to
	// <obs-out>/events.jsonl and leaves a manifest in <obs-out>/manifest.json;
	// -pprof additionally serves the live registry and profiler.
	var (
		telem *obs.Sink
		o     *obs.Observer
	)
	if *obsOn || *pprofAddr != "" {
		if *obsOn {
			s, err := obs.FileSink(*obsOut)
			if err != nil {
				return err
			}
			telem = s
		}
		o = obs.New(obs.Config{
			Clock:    obs.SystemClock(),
			Sink:     telem,
			Progress: obs.NewProgress(os.Stderr, obs.SystemClock()),
		})
		scn.Obs = o
	} else if shardN > 0 {
		// Sharded runs always get a coordinator-driven progress line (with
		// journal-restored points pre-counted, so a resume shows a correct
		// ETA) even without -obs; there is just no event sink or manifest.
		o = obs.New(obs.Config{
			Clock:    obs.SystemClock(),
			Progress: obs.NewProgress(os.Stderr, obs.SystemClock()),
		})
	}
	if *pprofAddr != "" {
		bound, err := obs.ServeDebug(*pprofAddr, o.Registry())
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "cbmasim: debug endpoint at http://%s/debug/pprof/ (registry at /debug/vars, Prometheus at /metrics)\n", bound)
	}
	var coord *shard.Coordinator
	if shardN > 0 {
		sub, err := shard.NewSubprocess(shard.SubprocessConfig{})
		if err != nil {
			return err
		}
		coord = shard.New(shard.Config{
			Shards:     shardN,
			Transport:  sub,
			JournalDir: *resume,
			Obs:        o,
		})
	}
	// finishObs flushes the event sink and writes the run manifest; it is
	// called on every exit path so a SIGINT leaves a complete (partial,
	// Interrupted) telemetry record next to the partial metrics.
	finishObs := func(result any, interrupted bool) error {
		if o == nil {
			return nil
		}
		err := telem.Close()
		if !*obsOn {
			return err
		}
		man := o.Manifest("cbmasim")
		man.Seed = *seed
		man.Workers = scn.Workers
		man.Interrupted = interrupted
		man.Result = result
		if shardN > 0 {
			man.Shards = shardN
			man.Resumed = int(o.Counter("shard.points.restored").Value())
		}
		if h, herr := scn.Hash(); herr == nil {
			man.ScenarioHash = h
		}
		if werr := obs.WriteManifest(filepath.Join(*obsOut, obs.ManifestFile), man); err == nil {
			err = werr
		}
		return err
	}

	if *faultSweep != "" {
		rates, err := parseRates(*sweepRates)
		if err != nil {
			return err
		}
		if coord != nil {
			err = runFaultSweepSharded(ctx, scn, *faultSweep, rates, coord)
		} else {
			err = runFaultSweep(ctx, scn, *faultSweep, rates)
		}
		interrupted := err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
		if oerr := finishObs(nil, interrupted); err == nil {
			err = oerr
		}
		return err
	}

	var (
		m           cbma.Metrics
		rep         cbma.Report
		interrupted bool
	)
	if coord != nil {
		// Sharded: the scenario runs as a one-point campaign through the
		// coordinator — journaled and resumable when -resume is set.
		ms, rerr := coord.Run(ctx, []cbma.Scenario{scn}, cbma.CampaignOpts{What: "cbmasim"})
		err = rerr
		interrupted = err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
		if err != nil && !interrupted {
			_ = finishObs(nil, false)
			return err
		}
		if len(ms) > 0 {
			m = ms[0]
		}
	} else {
		sys, serr := cbma.NewSystem(cbma.SystemConfig{Scenario: scn, NodeSelection: *nodeSel})
		if serr != nil {
			return serr
		}
		var recorder *cbma.TraceRecorder
		if *record != "" {
			recorder = cbma.NewTraceRecorder(fmt.Sprintf("cbmasim tags=%d family=%s", *tags, fam))
			sys.Engine().RecordTo(recorder)
		}
		if *replay != "" {
			f, ferr := os.Open(*replay)
			if ferr != nil {
				return ferr
			}
			tr, terr := cbma.ReadTrace(f)
			f.Close()
			if terr != nil {
				return terr
			}
			sys.Engine().ReplayFrom(cbma.NewTracePlayer(tr))
		}
		rep, err = sys.RunContext(ctx)
		interrupted = err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
		if err != nil && !interrupted {
			_ = finishObs(nil, false) // best effort: the run died on a config error
			return err
		}
		if recorder != nil {
			f, ferr := os.Create(*record)
			if ferr != nil {
				return ferr
			}
			werr := recorder.Trace().Write(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
			fmt.Printf("  trace recorded         %s (%d rounds)\n", *record, recorder.Len())
		}
		m = rep.Final
	}
	fmt.Printf("tags=%d family=%s distance=%.2fm bitrate=%.3gbps packets=%d\n",
		*tags, fam, *distance, *bitrate, *packets)
	// The content hash is the scenario's identity in result caches and run
	// manifests (sim.Scenario.Hash); printing it here lets a CLI run be
	// correlated with cbmad cache entries and BENCH manifests.
	if h, herr := scn.Hash(); herr == nil {
		fmt.Printf("  scenario hash          %s\n", h)
	}
	fmt.Printf("  frames sent/delivered  %d / %d\n", m.FramesSent, m.FramesDelivered)
	fmt.Printf("  frame error rate       %.4f\n", m.FER)
	fmt.Printf("  goodput                %.1f kbps\n", m.GoodputBps/1e3)
	fmt.Printf("  raw aggregate rate     %.3f Mbps\n", m.RawAggregateBps/1e6)
	if *pc {
		fmt.Printf("  power-control rounds   %d (converged %v)\n",
			m.PowerControlRounds, m.PowerControlConverged)
		if m.PowerControlRetries > 0 || m.PowerControlFellBack {
			fmt.Printf("  feedback retries       %d (fell back %v)\n",
				m.PowerControlRetries, m.PowerControlFellBack)
		}
	}
	if *nodeSel {
		fmt.Printf("  tags re-placed         %d\n", rep.Replacements)
	}
	if scn.Fault != nil {
		fmt.Printf("  rounds planned/done    %d / %d (quarantined %d, retries %d)\n",
			m.RoundsPlanned, m.RoundsExecuted, m.RoundsQuarantined, m.RoundRetries)
		fmt.Printf("  faults fired           %s\n", m.Faults)
	}
	if *perTag {
		for id := 0; id < *tags; id++ {
			fmt.Printf("  tag %2d delivery ratio  %.3f\n", id, m.TagDeliveryRatio(id))
		}
	}
	if interrupted {
		fmt.Println("  interrupted — metrics above cover the rounds committed before SIGINT")
		if oerr := finishObs(m, true); oerr != nil {
			fmt.Fprintln(os.Stderr, "cbmasim: flushing telemetry:", oerr)
		}
		return err
	}
	return finishObs(m, false)
}

// runFaultSweep runs the BER-vs-fault-rate curve for one knob and prints it
// as a table. An interrupt flushes the points finished so far. A partial
// failure (*cbma.CampaignError) still prints the healthy points' rows —
// failed points are marked in the table, every per-point error is listed,
// and the error propagates so the process exits non-zero instead of
// presenting a silently incomplete curve as a complete one.
func runFaultSweep(ctx context.Context, base cbma.Scenario, knob string, rates []float64) error {
	var (
		series cbma.Series
		err    error
	)
	switch knob {
	case "ack-loss":
		series, err = cbma.FaultSweepAckLoss(ctx, base, rates)
	case "outage":
		series, err = cbma.FaultSweepEnergyOutage(ctx, base, rates)
	default:
		return fmt.Errorf("unknown fault-sweep knob %q (want ack-loss or outage)", knob)
	}
	return printFaultSweep(ctx, base, rates, series, err)
}

// sweepMod resolves a -fault-sweep knob to the sweep's name and profile
// modifier — the same pairs the in-process FaultSweep* wrappers use, so
// both execution paths build identical campaign points.
func sweepMod(knob string) (string, func(*cbma.FaultProfile, float64), error) {
	switch knob {
	case "ack-loss":
		return "ack loss", func(p *cbma.FaultProfile, r float64) { p.AckLossProb = r }, nil
	case "outage":
		return "energy outage", func(p *cbma.FaultProfile, r float64) { p.EnergyOutageProb = r }, nil
	default:
		return "", nil, fmt.Errorf("unknown fault-sweep knob %q (want ack-loss or outage)", knob)
	}
}

// runFaultSweepSharded is runFaultSweep through the sharded coordinator:
// the sweep's points are built by the same sim.FaultSweepPoints the
// in-process path uses, so the resulting curve is bit-identical — only
// the execution substrate (worker processes, journal, retries) differs.
func runFaultSweepSharded(ctx context.Context, base cbma.Scenario, knob string, rates []float64, coord *shard.Coordinator) error {
	name, mod, err := sweepMod(knob)
	if err != nil {
		return err
	}
	points := sim.FaultSweepPoints(base, rates, mod)
	ms, err := coord.Run(ctx, points, cbma.CampaignOpts{What: fmt.Sprintf("fault sweep: %s", name)})
	return printFaultSweep(ctx, base, rates, sim.FaultSweepSeries(name, rates, ms), err)
}

// printFaultSweep renders a sweep's curve and classifies its error:
// interrupts flush the finished prefix, partial campaign failures mark
// their rows and list every per-point error, anything else propagates.
func printFaultSweep(ctx context.Context, base cbma.Scenario, rates []float64, series cbma.Series, err error) error {
	interrupted := err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
	var cerr *cbma.CampaignError
	partial := errors.As(err, &cerr)
	if err != nil && !interrupted && !partial {
		return err
	}
	failed := make(map[int]bool)
	if partial {
		for _, pe := range cerr.Points {
			failed[pe.Point] = true
		}
	}
	fmt.Printf("fault sweep: %s (tags=%d packets=%d)\n", series.Name, base.NumTags, base.Packets)
	if h, herr := base.Hash(); herr == nil {
		fmt.Printf("  base scenario hash %s\n", h)
	}
	fmt.Printf("  %-8s %-8s %-14s %s\n", "rate", "FER", "sent/delivered", "degradation")
	for i, pt := range series.Points {
		if failed[i] {
			fmt.Printf("  %-8.3f %-8s %-14s %s\n", pt.X, "-", "-", "FAILED (see below)")
			continue
		}
		m := pt.Metrics
		degr := "-"
		switch {
		case m.RoundsQuarantined > 0 || m.RoundRetries > 0:
			degr = fmt.Sprintf("quarantined=%d retries=%d %s", m.RoundsQuarantined, m.RoundRetries, m.Faults)
		case m.Faults.Any():
			degr = m.Faults.String()
		}
		fmt.Printf("  %-8.3f %-8.4f %-14s %s\n",
			pt.X, m.FER, fmt.Sprintf("%d/%d", m.FramesSent, m.FramesDelivered), degr)
	}
	if interrupted {
		fmt.Println("  interrupted — points above cover the sweep finished before SIGINT")
		return err
	}
	if partial {
		fmt.Fprintf(os.Stderr, "cbmasim: %d of %d sweep points failed:\n", len(cerr.Points), len(rates))
		for _, pe := range cerr.Points {
			rate := "?"
			if pe.Point >= 0 && pe.Point < len(rates) {
				rate = fmt.Sprintf("%.3f", rates[pe.Point])
			}
			fmt.Fprintf(os.Stderr, "  point %d (rate %s): %v\n", pe.Point, rate, pe.Err)
		}
		return err
	}
	return nil
}
