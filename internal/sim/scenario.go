// Package sim is the CBMA waveform-level simulation engine: it composes an
// excitation source, N backscatter tags, the RF channel and the receiver
// into chip-accurate collision experiments, and exposes the metric loops
// behind every table and figure of the paper's evaluation (see DESIGN.md's
// per-experiment index).
package sim

import (
	"errors"
	"fmt"
	"math"

	"cbma/internal/channel"
	"cbma/internal/fault"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/obs"
	"cbma/internal/pn"
)

// Defaults mirroring the paper's implementation (§VI, §VII).
const (
	// DefaultSampleRateHz is the receiver sampling rate f_s.
	DefaultSampleRateHz = 20e6
	// DefaultChipRateHz is the on-air OOK symbol rate (the paper's 1 µs
	// symbol time → 1 Mbps "bit rate" in its terminology).
	DefaultChipRateHz = 1e6
	// MaxSamplesPerChip caps oversampling so low-bitrate sweeps stay
	// tractable; beyond ~8 samples per chip the decoder gains nothing.
	MaxSamplesPerChip = 8
)

// Errors returned by scenario validation.
var (
	ErrBadTagCount = errors.New("sim: tag count must be positive")
	ErrBadPackets  = errors.New("sim: packet count must be positive")
	ErrNoPositions = errors.New("sim: deployment has fewer tag positions than tags")
)

// Scenario fully describes one experiment configuration. The zero value is
// not runnable; start from DefaultScenario.
//
// A Scenario is plain data: its JSON form (Go field names as keys) is at
// once the content-hash input, the shard wire and the cbmad request schema.
type Scenario struct {
	// Seed drives every random draw; equal seeds give identical runs.
	Seed int64
	// NumTags is the number of concurrently transmitting tags.
	NumTags int
	// Family selects the spreading-code family; GoldDegree sizes Gold and
	// Kasami families.
	Family     pn.Family
	GoldDegree uint
	// PayloadBytes is the per-frame payload size.
	PayloadBytes int
	// Packets is the number of collision rounds to simulate.
	Packets int
	// ChipRateHz is the OOK symbol rate; SampleRateHz the receiver rate.
	ChipRateHz   float64
	SampleRateHz float64
	// Frame configures framing (preamble length for Fig. 8(c)).
	Frame frame.Config
	// Channel holds the radio parameters (Tx power for Fig. 8(b)).
	Channel channel.Params
	// Deployment fixes ES, RX and tag positions. Leave Tags empty to have
	// Run place them on the canonical measurement line.
	Deployment geom.Deployment
	// TagLineDistance places tags (when Deployment.Tags is empty) on a
	// vertical line this far from the receiver, matching the Fig. 8(a)
	// distance sweep. Zero selects 1 m.
	TagLineDistance float64
	// JitterChips is the per-frame uniform clock jitter of each tag in
	// chips (±JitterChips/2). Zero selects 0.4 — sub-chip skew of
	// excitation-synchronized hardware.
	JitterChips float64
	// ExtraDelayChips optionally delays individual tags by fixed chip
	// counts (Fig. 11 asynchrony study). Indexed by tag; missing entries
	// mean zero.
	ExtraDelayChips []float64
	// Interferers inject external signals (Fig. 12 WiFi/Bluetooth cases),
	// applied in order; each entry sets exactly one kind.
	Interferers []channel.Interferer
	// OFDMExcitation gates tag reflections with an intermittent excitation
	// envelope (Fig. 12 case iv).
	OFDMExcitation bool
	// Multipath optionally applies a tapped-delay echo profile.
	Multipath *channel.Multipath
	// DetectThreshold and SearchChips override receiver defaults when
	// non-zero.
	DetectThreshold float64
	SearchChips     int
	// SIC enables the receiver's successive-interference-cancellation
	// stage (see rx.Config.SIC). Off by default: the paper's plain
	// correlation receiver is the system under study.
	SIC bool
	// PowerControl enables the Algorithm 1 loop; PacketsPerRound sets the
	// measurement batch between adjustment rounds (zero selects 20).
	PowerControl    bool
	PacketsPerRound int
	// Oracle power control (EqualizePower) replaces the feedback loop —
	// used by ablations. Ignored unless PowerControl is set.
	OraclePowerControl bool
	// CFOppm draws each tag a carrier-frequency offset uniformly in
	// ±CFOppm parts-per-million of the carrier, modelling the cheap tag
	// oscillators the paper's §VIII discussion worries about. The offset
	// rotates the tag's baseband phase across the frame; see
	// Scenario.PhaseTracking for the receiver-side answer.
	CFOppm float64
	// PhaseTracking enables the receiver's decision-directed phase
	// tracking (rx.Config.PhaseTracking) — the extension that restores
	// coherent decoding under CFO.
	PhaseTracking bool
	// AckLossProb drops each ACK delivery to the tag with this
	// probability, modelling an unreliable downlink. It starves the
	// Algorithm 1 feedback loop without changing receiver-side metrics.
	AckLossProb float64
	// StaticChannel freezes each tag's fading/shadowing coefficient for
	// the whole run instead of redrawing it per frame — the model of a
	// stationary bench measurement (the paper's Fig. 7 table), used by the
	// user-detection micro benchmark. Dynamic per-frame block fading (the
	// default) models people and objects moving through the office.
	StaticChannel bool
	// ImpedanceStates overrides the tag impedance bank with a synthetic
	// uniform ladder of this many states (tag.UniformBank) — the
	// granularity ablation. Zero keeps the paper's four-component bank.
	ImpedanceStates int
	// RandomInitialImpedance powers each tag up in a uniformly random
	// impedance state instead of full reflection, modelling hardware whose
	// switch state at boot is arbitrary. This is the regime where the
	// ACK-driven Algorithm 1 has something to fix — §V-B's "we have to
	// increase the power" presumes tags are not already at their best
	// state — and it is enabled for both arms of the Fig. 9(c) and
	// Fig. 10 comparisons.
	RandomInitialImpedance bool
	// Workers sets how many goroutines execute the steady-state collision
	// rounds. Zero or one selects the serial path. Any value produces
	// bit-identical Metrics — rounds draw from per-round RNG streams and
	// commit in round order — so Workers is purely a wall-clock knob and
	// stays out of the JSON form (and with it the hash and the wire).
	Workers int `json:"-"`
	// referenceSync forces the receiver's pre-optimization timing
	// acquisition (rx.Config.ReferenceSync). It is a test seam: the sync
	// equivalence tests run every scenario through both paths and require
	// bit-identical Metrics, which is the guarantee that lets the fast path
	// be the only one a Scenario can ask for.
	referenceSync bool
	// Fault, when non-nil, enables the deterministic fault-injection layer
	// (internal/fault): stuck impedance switches, clock drift, mid-frame
	// energy outages, ACK loss/corruption, interference bursts, deep fades
	// and injected execution failures, all drawn from dedicated per-round
	// RNG streams so schedules are bit-identical for any worker count. The
	// profile is shared by value-copied scenarios and must not be mutated
	// after the scenario is handed to an engine. A fault profile also
	// enables the receiver's re-sync fallback (rx.Config.ResyncFallback)
	// and, when FeedbackRetries is set, the power controller's
	// feedback-timeout path.
	Fault *fault.Profile
	// Obs, when non-nil, attaches the telemetry layer (internal/obs): stage
	// and receiver-phase timing spans, round/fault/power-control events and
	// campaign progress. Telemetry is strictly observational — the engine
	// never consults it for control flow, it consumes no simulation
	// randomness, and it reads time only through its own injected clock — so
	// Metrics are bit-identical with Obs nil or set, at any worker count
	// (TestRunObsEquivalence). One observer may be shared by every scenario
	// of a campaign; all its instruments are concurrency-safe. Like
	// Workers, it stays out of the JSON form.
	Obs *obs.Observer `json:"-"`
}

// DefaultScenario returns a runnable baseline: 2 tags with Gold-31 codes on
// the paper's canonical geometry.
func DefaultScenario() Scenario {
	return Scenario{
		Seed:            1,
		NumTags:         2,
		Family:          pn.FamilyGold,
		GoldDegree:      5,
		PayloadBytes:    16,
		Packets:         100,
		ChipRateHz:      DefaultChipRateHz,
		SampleRateHz:    DefaultSampleRateHz,
		Channel:         channel.DefaultParams(),
		Deployment:      geom.NewDeployment(0.5),
		TagLineDistance: 1.0,
		JitterChips:     0.4,
		PacketsPerRound: 20,
	}
}

// SamplesPerChip derives the oversampling factor from the rates, clamped to
// [1, MaxSamplesPerChip]. The clamp's lower edge is where the paper's
// Fig. 9(a) "too few sampling points" degradation comes from.
func (s Scenario) SamplesPerChip() int {
	if s.ChipRateHz <= 0 || s.SampleRateHz <= 0 {
		return 4
	}
	spc := int(math.Round(s.SampleRateHz / s.ChipRateHz))
	if spc < 1 {
		spc = 1
	}
	if spc > MaxSamplesPerChip {
		spc = MaxSamplesPerChip
	}
	return spc
}

// maxTags bounds NumTags for every code family: the largest Gold family
// built here (degree 9) holds 513 codes. 2NC and Walsh sets have no size
// limit of their own, and validation places one tag position per tag, so
// without the bound a hostile submission would allocate at the door.
const maxTags = 1<<9 + 1

// validate normalizes the scenario and reports configuration errors.
func (s *Scenario) validate() error {
	if s.NumTags <= 0 {
		return ErrBadTagCount
	}
	if s.NumTags > maxTags {
		return fmt.Errorf("sim: %w: want %d, at most %d", pn.ErrFamilySize, s.NumTags, maxTags)
	}
	if s.Packets <= 0 {
		return ErrBadPackets
	}
	if s.PayloadBytes <= 0 {
		s.PayloadBytes = 16
	}
	if s.PayloadBytes > frame.MaxPayload {
		return fmt.Errorf("sim: payload %d exceeds %d", s.PayloadBytes, frame.MaxPayload)
	}
	if s.Frame.PreambleBits == 0 {
		s.Frame.PreambleBits = frame.DefaultPreambleBits
	}
	if _, err := s.Frame.Preamble(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if s.Family == 0 {
		s.Family = pn.FamilyGold
	}
	if s.GoldDegree == 0 {
		s.GoldDegree = 5
	}
	capacity, err := pn.Capacity(s.Family, s.GoldDegree)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if s.NumTags > capacity {
		return fmt.Errorf("sim: %w: want %d, family has %d", pn.ErrFamilySize, s.NumTags, capacity)
	}
	for i, it := range s.Interferers {
		if err := it.Validate(); err != nil {
			return fmt.Errorf("sim: interferer %d: %w", i, err)
		}
	}
	// Empty and absent slices run identically, so they must serialize (and
	// hash) identically too.
	if len(s.ExtraDelayChips) == 0 {
		s.ExtraDelayChips = nil
	}
	if len(s.Interferers) == 0 {
		s.Interferers = nil
	}
	if s.ChipRateHz <= 0 {
		s.ChipRateHz = DefaultChipRateHz
	}
	if s.SampleRateHz <= 0 {
		s.SampleRateHz = DefaultSampleRateHz
	}
	if s.TagLineDistance == 0 {
		s.TagLineDistance = 1
	}
	if s.PacketsPerRound <= 0 {
		s.PacketsPerRound = 20
	}
	if s.Workers < 0 {
		return fmt.Errorf("sim: workers must be non-negative, got %d", s.Workers)
	}
	if s.ImpedanceStates < 0 {
		return fmt.Errorf("sim: impedance states must be non-negative, got %d", s.ImpedanceStates)
	}
	if s.Channel.CarrierHz == 0 {
		s.Channel = channel.DefaultParams()
	}
	if s.Deployment.Room.Width == 0 {
		// Default only the missing geometry. Replacing the whole Deployment
		// here used to discard caller-provided tag positions (and ES/RX
		// placements) whenever the room was left zero — the common way to
		// say "default room, my layout".
		def := geom.NewDeployment(0.5)
		s.Deployment.Room = def.Room
		if s.Deployment.ES == (geom.Point{}) && s.Deployment.RX == (geom.Point{}) {
			s.Deployment.ES = def.ES
			s.Deployment.RX = def.RX
		}
	}
	if len(s.Deployment.Tags) == 0 {
		// Canonical micro-benchmark geometry (§VII-B "impact of distance"):
		// tags on a vertical line TagLineDistance from the receiver, spread
		// over 40 cm (shrinking with range so very close measurements do
		// not manufacture a geometric near-far spread), with the excitation
		// source moved to keep the paper's fixed 50 cm ES-to-tag spacing.
		tagX := s.Deployment.RX.X - s.TagLineDistance
		span := 0.4
		if lim := 2 * s.TagLineDistance; lim < span {
			span = lim
		}
		s.Deployment.PlaceTagsLine(s.NumTags, tagX, span)
		s.Deployment.ES = geom.Point{X: tagX - 0.5}
	}
	if len(s.Deployment.Tags) < s.NumTags {
		return fmt.Errorf("%w: %d < %d", ErrNoPositions, len(s.Deployment.Tags), s.NumTags)
	}
	return nil
}
