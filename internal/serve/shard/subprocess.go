package shard

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

// The subprocess wire protocol. One request travels to the worker's stdin
// as a single JSON document; the worker streams newline-delimited JSON
// messages back on stdout:
//
//	{"type":"beat"}                        liveness (heartbeat interval)
//	{"type":"result","sum":h,"payload":p}  one completed point; sum is the
//	                                       hex SHA-256 of the exact payload
//	                                       bytes (a PointResult)
//	{"type":"event","payload":e}           one relayed telemetry event (an
//	                                       obs.Event; sent only when the
//	                                       request set relay_events)
//	{"type":"done","results":n,            clean end of stream; snapshot is
//	       "snapshot":s}                   the worker's registry (only when
//	                                       the request set want_snapshot)
//	{"type":"error","error":msg}           worker-side fatal error
//
// Results are checksummed individually so a reply torn by a mid-write
// kill -9 is detected at the message boundary: everything before it is
// committed, the attempt fails, and only the remainder redispatches.
// Telemetry is best-effort by design: a malformed event payload is
// dropped, never fatal, and a crashed worker loses only its registry
// snapshot (its events were streamed live). Unknown message types are
// ignored for forward compatibility.

// wireVersion is the protocol version; a worker refuses any other. Version
// 2 carries points in the v2 plain-data Scenario form.
const wireVersion = 2

// wireRequest is the worker's stdin document.
type wireRequest struct {
	Version      int            `json:"version"`
	Shard        int            `json:"shard"`
	Attempt      int            `json:"attempt"`
	What         string         `json:"what,omitempty"`
	Workers      int            `json:"workers,omitempty"`
	HeartbeatMS  int            `json:"heartbeat_ms,omitempty"`
	TraceID      string         `json:"trace_id,omitempty"`
	RelayEvents  bool           `json:"relay_events,omitempty"`
	WantSnapshot bool           `json:"want_snapshot,omitempty"`
	Indices      []int          `json:"indices"`
	Hashes       []string       `json:"hashes"`
	Points       []sim.Scenario `json:"points"`
}

// wireMsg is one stdout line.
type wireMsg struct {
	Type     string          `json:"type"`
	Sum      string          `json:"sum,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Results  int             `json:"results,omitempty"`
	Snapshot *obs.Snapshot   `json:"snapshot,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// SubprocessConfig assembles a Subprocess transport.
type SubprocessConfig struct {
	// Argv is the worker command line. Empty means re-exec this binary
	// with -shard-worker appended — both CLIs implement that mode.
	Argv []string
	// Env entries are appended to the inherited environment (used by the
	// chaos harness to plant deterministic worker deaths).
	Env []string
	// Stderr receives worker stderr; nil means this process's stderr.
	Stderr io.Writer
}

// Subprocess executes assignments in a worker process: request on stdin,
// streamed JSONL results on stdout. A worker that dies mid-range (kill
// -9, crash, OOM) costs only its undelivered points — every delivered,
// checksum-verified result is already committed coordinator-side.
type Subprocess struct {
	cfg SubprocessConfig
}

// NewSubprocess builds the transport, resolving the default worker argv.
func NewSubprocess(cfg SubprocessConfig) (*Subprocess, error) {
	if len(cfg.Argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("shard: resolving worker binary: %w", err)
		}
		cfg.Argv = []string{exe, "-shard-worker"}
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	return &Subprocess{cfg: cfg}, nil
}

// Execute implements Transport.
func (s *Subprocess) Execute(ctx context.Context, a Assignment, sink Sink) error {
	req := wireRequest{
		Version: wireVersion, Shard: a.Shard, Attempt: a.Attempt,
		What: a.What, Workers: a.Workers, HeartbeatMS: a.HeartbeatMS,
		TraceID: a.TraceID, RelayEvents: a.RelayEvents, WantSnapshot: a.WantSnapshot,
		Indices: a.Indices, Hashes: a.Hashes, Points: a.Points,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("shard: encoding assignment: %w", err)
	}

	cmd := exec.CommandContext(ctx, s.cfg.Argv[0], s.cfg.Argv[1:]...)
	cmd.Env = append(os.Environ(), s.cfg.Env...)
	cmd.Stdin = bytes.NewReader(body)
	cmd.Stderr = s.cfg.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("shard: starting worker: %w", err)
	}
	done, streamErr := readStream(stdout, sink)
	if streamErr != nil {
		// Stop a worker we will no longer listen to before reaping it.
		_ = cmd.Process.Kill()
	}
	waitErr := cmd.Wait()
	if streamErr != nil {
		return streamErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if waitErr != nil {
		return fmt.Errorf("shard: worker exited: %w", waitErr)
	}
	if !done {
		return fmt.Errorf("shard: worker stream ended without done marker")
	}
	return nil
}

// readStream consumes the worker's stdout until EOF, a protocol error, or
// a rejected delivery. It reports whether the clean done marker arrived.
func readStream(r io.Reader, sink Sink) (done bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var msg wireMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			return done, fmt.Errorf("%w: undecodable message: %v", ErrCorruptReply, err)
		}
		switch msg.Type {
		case "beat":
			sink.Beat()
		case "result":
			sum := sha256.Sum256(msg.Payload)
			if hex.EncodeToString(sum[:]) != msg.Sum {
				return done, fmt.Errorf("%w: payload checksum mismatch", ErrCorruptReply)
			}
			var pr PointResult
			if err := json.Unmarshal(msg.Payload, &pr); err != nil {
				return done, fmt.Errorf("%w: undecodable payload: %v", ErrCorruptReply, err)
			}
			if err := sink.Deliver(pr); err != nil {
				return done, err
			}
		case "event":
			// Relayed worker telemetry: best-effort, so a malformed payload
			// is dropped rather than failing the attempt.
			var ev obs.Event
			if err := json.Unmarshal(msg.Payload, &ev); err == nil {
				sink.Event(ev)
			}
		case "done":
			done = true
			if msg.Snapshot != nil {
				sink.Telemetry(*msg.Snapshot)
			}
		case "error":
			return done, fmt.Errorf("shard: worker error: %s", msg.Error)
		}
	}
	if serr := sc.Err(); serr != nil {
		return done, fmt.Errorf("shard: reading worker stream: %w", serr)
	}
	return done, nil
}
