package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cbma/internal/channel"
	"cbma/internal/obs"
	"cbma/internal/sim"
)

// workerModeEnv flips the re-exec'd test binary into shard-worker mode
// (see TestMain in leak_test.go) — the same pattern the real CLIs use
// with their -shard-worker flag.
const workerModeEnv = "CBMA_SHARD_WORKER_TEST"

// workerMain is the worker mode's entry point.
func workerMain() int {
	if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "shard worker:", err)
		return 1
	}
	return 0
}

// testSubprocess builds a transport that re-execs this test binary as the
// worker, with optional extra environment (chaos knobs).
func testSubprocess(t *testing.T, env ...string) *Subprocess {
	t.Helper()
	tr, err := NewSubprocess(SubprocessConfig{
		Argv: []string{os.Args[0]},
		Env:  append([]string{workerModeEnv + "=1"}, env...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSubprocessShardedEquivalence: the full wire path — coordinator →
// exec'd worker process → JSONL results back — produces metrics
// bit-identical (serialized form) to single-process sim.RunCampaign,
// including the faulted profile point and Fig. 12 WiFi and Bluetooth
// coexistence points, whose interferers cross the wire as plain data.
func TestSubprocessShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	points := campaignPoints(t, false)
	interfDBm := sim.DefaultScenario().Channel.NoiseFloorDBm + 14
	for i, it := range []channel.Interferer{
		{WiFi: &channel.WiFiInterferer{PowerDBm: interfDBm}},
		{Bluetooth: &channel.BluetoothInterferer{PowerDBm: interfDBm}},
	} {
		scn := points[i]
		scn.Interferers = []channel.Interferer{it}
		points = append(points, scn)
	}
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2, What: "wire"})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{Shards: 2, Transport: testSubprocess(t), Backoff: time.Millisecond})
	got, gotErr := c.Run(context.Background(), points, sim.CampaignOpts{Workers: 2, What: "wire"})
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	metricsEqualJSON(t, want, got)
}

// TestSubprocessWorkerKillResume is the kill -9 half of the resume
// contract: every worker process dies abruptly after its first result
// (ExitAfterEnv, no done marker), so finishing the campaign takes one
// dispatch per point — progress-per-attempt keeps it out of quarantine —
// and the journaled result set stays bit-identical to an uninterrupted
// run. A second campaign over the same journal then restores everything
// without spawning a single worker.
func TestSubprocessWorkerKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	points := campaignPoints(t, false)
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	o := obs.New(obs.Config{})
	c := New(Config{
		Shards:      2,
		Transport:   testSubprocess(t, ExitAfterEnv+"=1"),
		JournalDir:  dir,
		Backoff:     time.Millisecond,
		MaxAttempts: 3,
		Obs:         o,
	})
	got, gotErr := c.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	metricsEqualJSON(t, want, got)
	if n := o.Counter("shard.retries").Value(); n < int64(len(points)-2) {
		t.Errorf("retries = %d; with every worker dying after one result, expected at least %d", n, len(points)-2)
	}

	// Resume: everything is journaled; no worker process runs at all
	// (the transport would fail loudly if one did).
	c2 := New(Config{
		Shards:     2,
		Transport:  mustNotRunTransport{t},
		JournalDir: dir,
	})
	again, err2 := c2.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if err2 != nil {
		t.Fatal(err2)
	}
	metricsEqualJSON(t, want, again)
}

type mustNotRunTransport struct{ t *testing.T }

func (m mustNotRunTransport) Execute(ctx context.Context, a Assignment, sink Sink) error {
	m.t.Errorf("transport executed shard %d (%d points) on a fully-journaled campaign", a.Shard, len(a.Indices))
	return errors.New("must not run")
}

// TestSubprocessRefusesTamperedHash: an assignment whose hash does not
// match its scenario crosses the wire, and the worker process refuses it
// before running anything — the attempt fails naming the mismatch and no
// result is delivered.
func TestSubprocessRefusesTamperedHash(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.Packets = 4
	h, err := scn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	tr := testSubprocess(t)
	a := Assignment{
		Indices: []int{0},
		Points:  []sim.Scenario{scn},
		Hashes:  []string{h + "tampered"},
	}
	var sink countingSink
	err = tr.Execute(context.Background(), a, &sink)
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("err = %v, want the worker's hash mismatch", err)
	}
	if sink.delivered != 0 {
		t.Fatalf("%d results delivered for a refused assignment", sink.delivered)
	}
}

// countingSink counts deliveries and discards everything else.
type countingSink struct{ delivered int }

func (*countingSink) Beat() {}
func (c *countingSink) Deliver(PointResult) error {
	c.delivered++
	return nil
}
func (*countingSink) Event(obs.Event)        {}
func (*countingSink) Telemetry(obs.Snapshot) {}

// TestServeWorkerRefusesHashMismatch: the worker re-derives every
// scenario hash and refuses an assignment whose content does not match —
// the wire-fidelity check on the far side.
func TestServeWorkerRefusesHashMismatch(t *testing.T) {
	scn := sim.DefaultScenario()
	scn.Packets = 4
	h, err := scn.Hash()
	if err != nil {
		t.Fatal(err)
	}
	tampered := scn
	tampered.Seed++
	req := wireRequest{
		Version: wireVersion,
		Indices: []int{0},
		Hashes:  []string{h},
		Points:  []sim.Scenario{tampered},
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = ServeWorker(context.Background(), bytes.NewReader(body), &out, nil)
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("err = %v, want hash mismatch", err)
	}
	if !strings.Contains(out.String(), `"type":"error"`) {
		t.Fatalf("worker did not report the error on the wire: %q", out.String())
	}
}

// TestServeWorkerRoundTrip drives the worker in-process through the wire
// format: results stream back checksummed, in assignment order, ending
// with the done marker.
func TestServeWorkerRoundTrip(t *testing.T) {
	points := campaignPoints(t, false)[:2]
	hashes := journalHashes(t, points)
	req := wireRequest{
		Version: wireVersion,
		Indices: []int{4, 9},
		Hashes:  hashes,
		Points:  points,
		Workers: 2,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeWorker(context.Background(), bytes.NewReader(body), &out, nil); err != nil {
		t.Fatal(err)
	}
	var results []PointResult
	done := false
	for _, line := range bytes.Split(out.Bytes(), []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var msg wireMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			t.Fatalf("undecodable line %q: %v", line, err)
		}
		switch msg.Type {
		case "result":
			sum := sha256.Sum256(msg.Payload)
			if hex.EncodeToString(sum[:]) != msg.Sum {
				t.Fatal("result checksum mismatch")
			}
			var pr PointResult
			if err := json.Unmarshal(msg.Payload, &pr); err != nil {
				t.Fatal(err)
			}
			results = append(results, pr)
		case "done":
			done = true
			if msg.Results != 2 {
				t.Errorf("done reports %d results, want 2", msg.Results)
			}
		}
	}
	if !done {
		t.Fatal("no done marker")
	}
	if len(results) != 2 || results[0].Index != 4 || results[1].Index != 9 {
		t.Fatalf("results carry wrong indices: %+v", results)
	}
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	metricsEqualJSON(t, want, []sim.Metrics{results[0].Metrics, results[1].Metrics})
}

// TestServeWorkerRelaysTelemetry drives the worker with trace propagation,
// event relay and snapshot shipping all on: every relayed event line
// decodes and carries the coordinator's trace ID, the done marker carries a
// registry snapshot of the worker's execution, and the results themselves
// stay bit-identical to a telemetry-off reference.
func TestServeWorkerRelaysTelemetry(t *testing.T) {
	points := campaignPoints(t, false)[:2]
	hashes := journalHashes(t, points)
	req := wireRequest{
		Version:      wireVersion,
		Indices:      []int{0, 1},
		Hashes:       hashes,
		Points:       points,
		Workers:      2,
		TraceID:      "feedc0de12345678",
		RelayEvents:  true,
		WantSnapshot: true,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := ServeWorker(context.Background(), bytes.NewReader(body), &out, nil); err != nil {
		t.Fatal(err)
	}
	var (
		results  []PointResult
		events   []obs.Event
		snapshot *obs.Snapshot
	)
	for _, line := range bytes.Split(out.Bytes(), []byte{'\n'}) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var msg wireMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			t.Fatalf("undecodable line %q: %v", line, err)
		}
		switch msg.Type {
		case "result":
			var pr PointResult
			if err := json.Unmarshal(msg.Payload, &pr); err != nil {
				t.Fatal(err)
			}
			results = append(results, pr)
		case "event":
			var ev obs.Event
			if err := json.Unmarshal(msg.Payload, &ev); err != nil {
				t.Fatalf("undecodable event payload %q: %v", msg.Payload, err)
			}
			events = append(events, ev)
		case "done":
			snapshot = msg.Snapshot
		}
	}
	if len(events) == 0 {
		t.Fatal("worker relayed no events with RelayEvents set")
	}
	for _, ev := range events {
		if got, _ := ev.Fields["trace_id"].(string); got != req.TraceID {
			t.Fatalf("event %q carries trace_id %q, want %q", ev.Type, got, req.TraceID)
		}
	}
	if snapshot == nil {
		t.Fatal("done marker carries no snapshot with WantSnapshot set")
	}
	rounds := int64(0)
	for _, c := range snapshot.Counters {
		if c.Name == "sim.rounds.executed" {
			rounds = c.Value
		}
	}
	if rounds == 0 {
		t.Error("snapshot missing sim.rounds.executed — worker registry not captured")
	}
	pointNs := false
	for _, h := range snapshot.Histograms {
		if h.Name == "campaign.point_ns" && h.Count == int64(len(points)) {
			pointNs = true
		}
	}
	if !pointNs {
		t.Errorf("snapshot missing campaign.point_ns with count %d: %+v", len(points), snapshot.Histograms)
	}
	for i, r := range results {
		if r.ElapsedNs <= 0 {
			t.Errorf("result %d missing elapsed_ns", i)
		}
	}
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	metricsEqualJSON(t, want, []sim.Metrics{results[0].Metrics, results[1].Metrics})
}

// TestReadStreamRejectsBadChecksum: a result whose payload does not match
// its checksum is a corrupt reply, detected at the message boundary.
func TestReadStreamRejectsBadChecksum(t *testing.T) {
	payload, _ := json.Marshal(PointResult{Index: 0})
	good := sha256.Sum256(payload)
	_ = good
	line, _ := json.Marshal(wireMsg{Type: "result", Sum: "deadbeef", Payload: payload})
	_, err := readStream(bytes.NewReader(append(line, '\n')), &countingSink{})
	if !errors.Is(err, ErrCorruptReply) {
		t.Fatalf("err = %v, want ErrCorruptReply", err)
	}
}
