// Package cbma is a faithful, simulation-backed reimplementation of CBMA —
// Coded-Backscatter Multiple Access (Mi et al., ICDCS 2019): a system that
// lets many passive backscatter tags transmit concurrently in the same
// band by spreading each tag's bits with a PN code (Gold or 2NC), decoding
// collisions with a correlation receiver, and fighting the CDMA near–far
// problem with impedance-based power control at the tag plus a
// node-selection scheme over the deployment geometry.
//
// The paper's hardware testbed (USRP RIO radios, FPGA-driven PCB tags) is
// replaced by a chip-accurate complex-baseband simulator; DESIGN.md
// documents every substitution. The library exposes:
//
//   - Scenario / NewEngine — waveform-level collision experiments.
//   - SystemConfig / NewSystem — the full closed loop with Algorithm 1
//     power control and §V-C node selection.
//   - Sweep* / UserDetection / WorkingConditions / PowerDifferenceTable /
//     DeploymentStudy — the exact experiment harnesses behind every table
//     and figure in the paper's evaluation (see EXPERIMENTS.md).
//   - TDMA / FSA / QAlgo / FDMA — the baseline MACs CBMA is compared
//     against.
//
// Quickstart:
//
//	scn := cbma.DefaultScenario()
//	scn.NumTags = 4
//	engine, err := cbma.NewEngine(scn)
//	if err != nil { ... }
//	metrics, err := engine.Run()
//	fmt.Println(metrics.FER, metrics.GoodputBps)
package cbma

import (
	"cbma/internal/baseline"
	"cbma/internal/channel"
	"cbma/internal/core"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
	"cbma/internal/sim"
)

// Core experiment types, re-exported from the engine.
type (
	// Scenario fully describes one experiment configuration; start from
	// DefaultScenario.
	Scenario = sim.Scenario
	// Engine runs collision rounds for one Scenario.
	Engine = sim.Engine
	// Metrics aggregates a run: FER, PRR, goodput, raw aggregate rate.
	Metrics = sim.Metrics
	// Series and Point carry sweep results (one curve per tag count etc.).
	Series = sim.Series
	Point  = sim.Point
)

// Radio, geometry and framing configuration.
type (
	// ChannelParams is the RF link budget of Eq. 1 plus noise, fading and
	// shadowing models.
	ChannelParams = channel.Params
	// FrameConfig controls link-layer framing (preamble length).
	FrameConfig = frame.Config
	// Deployment places the excitation source, receiver and tags.
	Deployment = geom.Deployment
	// Position is a planar coordinate in meters.
	Position = geom.Point
	// Room is the rectangular deployment area.
	Room = geom.Room
	// Multipath is an optional tapped-delay echo profile.
	Multipath = channel.Multipath
	// Interferer injects one external signal (WiFi or Bluetooth) into a
	// run: set exactly one of its fields.
	Interferer = channel.Interferer
	// WiFiInterferer and BluetoothInterferer are the Fig. 12 coexistence
	// models.
	WiFiInterferer      = channel.WiFiInterferer
	BluetoothInterferer = channel.BluetoothInterferer
)

// Spreading codes.
type (
	// CodeFamily selects the PN code construction.
	CodeFamily = pn.Family
	// Code is one tag's spreading code; CodeSet a family of them.
	Code    = pn.Code
	CodeSet = pn.Set
)

// Code family constants.
const (
	FamilyGold   = pn.FamilyGold
	Family2NC    = pn.Family2NC
	FamilyWalsh  = pn.FamilyWalsh
	FamilyKasami = pn.FamilyKasami
)

// Closed-loop system (power control + node selection).
type (
	// SystemConfig configures the full CBMA closed loop.
	SystemConfig = core.Config
	// System is a runnable deployment; Report its outcome.
	System = core.System
	Report = core.Report
)

// Baselines.
type (
	// BaselineResult summarizes a baseline MAC run.
	BaselineResult = baseline.Result
	// TDMAConfig, FSAConfig, FDMAConfig and QAlgoConfig parameterize the
	// comparators.
	TDMAConfig  = baseline.TDMAConfig
	FSAConfig   = baseline.FSAConfig
	FDMAConfig  = baseline.FDMAConfig
	QAlgoConfig = baseline.QAlgoConfig
	// SystemSummary is a row of the paper's Table I.
	SystemSummary = baseline.SystemSummary
)

// DefaultScenario returns the paper's canonical configuration: 2 GHz
// carrier, 20 MS/s receiver, 1 Mcps chips, Gold-31 codes, two tags one
// meter from the receiver in the 4 m × 6 m office.
func DefaultScenario() Scenario { return sim.DefaultScenario() }

// DefaultChannel returns the calibrated radio parameters (see
// channel.DefaultParams and DESIGN.md for the calibration rationale).
func DefaultChannel() ChannelParams { return channel.DefaultParams() }

// NewEngine validates a scenario and builds a waveform-level engine.
func NewEngine(scn Scenario) (*Engine, error) { return sim.NewEngine(scn) }

// NewSystem builds the closed-loop CBMA system (power control and optional
// node selection) described by cfg.
func NewSystem(cfg SystemConfig) (*System, error) { return core.New(cfg) }

// NewCodeSet constructs a spreading-code family for n tags. goldDegree
// selects the m-sequence degree for Gold/Kasami (0 ⇒ 5, i.e. 31 chips).
func NewCodeSet(f CodeFamily, n int, goldDegree uint) (*CodeSet, error) {
	return pn.NewSet(f, n, goldDegree)
}

// NewDeployment returns the paper's geometry: excitation source at (−d, 0)
// and receiver at (d, 0) in the default room.
func NewDeployment(d float64) Deployment { return geom.NewDeployment(d) }

// FriisField evaluates the theoretical backscatter signal strength (dBm) of
// Eq. 1 on a grid over the room — the data behind Fig. 5.
func FriisField(p ChannelParams, d Deployment, deltaGamma float64, nx, ny int) ([][]float64, error) {
	return p.FriisField(d, deltaGamma, nx, ny)
}

// TDMA, FSA and FDMA run the baseline MACs (see internal/baseline).
func TDMA(scn Scenario, cfg TDMAConfig) (BaselineResult, error) { return baseline.TDMA(scn, cfg) }

// FSA simulates framed slotted ALOHA for n tags.
func FSA(n int, cfg FSAConfig) (BaselineResult, error) { return baseline.FSA(n, cfg) }

// FDMA simulates frequency-division access for n tags.
func FDMA(n int, cfg FDMAConfig) (BaselineResult, error) { return baseline.FDMA(n, cfg) }

// QAlgo simulates the EPC Gen2-style adaptive framed-ALOHA reader for n
// tags — the industry-standard anti-collision MAC.
func QAlgo(n int, cfg QAlgoConfig) (BaselineResult, error) { return baseline.QAlgo(n, cfg) }

// RunCBMABaseline runs the concurrent system under baseline accounting for
// direct comparison with TDMA/FSA/FDMA.
func RunCBMABaseline(scn Scenario) (BaselineResult, error) { return baseline.CBMA(scn) }

// MeasureSingleTagFER calibrates packet-level baselines from a one-tag
// waveform run.
func MeasureSingleTagFER(scn Scenario) (float64, error) { return baseline.MeasureSingleTagFER(scn) }

// Table1 returns the literature rows of the paper's Table I; CBMARow builds
// the locally measured row.
func Table1() []SystemSummary { return baseline.Table1() }

// CBMARow builds the measured CBMA row for Table I.
func CBMARow(aggregateBps float64, tags int, rangeMeters float64) SystemSummary {
	return baseline.CBMARow(aggregateBps, tags, rangeMeters)
}
