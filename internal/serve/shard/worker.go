package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
)

// ExitAfterEnv is the chaos hook for worker-death tests: when set to n,
// the worker process exits abruptly (os.Exit, no done marker — the moral
// equivalent of kill -9) immediately after its n-th result line reaches
// the wire. The coordinator must absorb the death, keep the n committed
// points, and redispatch the rest. Unset or invalid values disable the
// hook; production workers never set it.
const ExitAfterEnv = "CBMA_SHARD_EXIT_AFTER"

// defaultHeartbeatMS paces liveness beats when the request does not.
const defaultHeartbeatMS = 500

// ServeWorker runs the worker side of the subprocess protocol: decode one
// wireRequest from r, verify each scenario's content hash survived the
// wire, execute the points one at a time (streaming each result as it
// completes, with heartbeats in between), and finish with the done
// marker. runner nil means the production engine. The error return is for
// the worker process's exit status; protocol-level failures are also
// reported to the coordinator as an error message when possible.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, runner core.Runner) error {
	var req wireRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return writeFatal(w, fmt.Errorf("decoding request: %w", err))
	}
	if req.Version != wireVersion {
		return writeFatal(w, fmt.Errorf("unsupported wire version %d (want %d)", req.Version, wireVersion))
	}
	if len(req.Points) != len(req.Indices) || len(req.Hashes) != len(req.Indices) {
		return writeFatal(w, fmt.Errorf("malformed assignment: %d points, %d indices, %d hashes",
			len(req.Points), len(req.Indices), len(req.Hashes)))
	}
	// Re-derive every content hash: a scenario mangled in flight must be
	// refused, never silently run as a different computation.
	for j := range req.Points {
		h, err := req.Points[j].Hash()
		if err != nil {
			return writeFatal(w, fmt.Errorf("point %d: %v", req.Indices[j], err))
		}
		if h != req.Hashes[j] {
			return writeFatal(w, fmt.Errorf("point %d: scenario hash mismatch (got %s, assignment says %s)",
				req.Indices[j], h, req.Hashes[j]))
		}
	}

	exitAfter := -1
	if v := os.Getenv(ExitAfterEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			exitAfter = n
		}
	}

	// All output funnels through one writer goroutine so result lines and
	// heartbeat lines never interleave mid-line. The writer also owns the
	// chaos exit hook: dying right after the n-th result hits the wire is
	// what makes worker-death tests deterministic.
	lines := make(chan wireLine, 4)
	werr := make(chan error, 1)
	go func() { // exits when lines closes below
		var err error
		results := 0
		for l := range lines {
			if err == nil {
				_, err = w.Write(l.b)
			}
			if l.result && err == nil {
				results++
				if exitAfter >= 0 && results >= exitAfter {
					os.Exit(3) // chaos hook: simulated kill -9, no done marker
				}
			}
		}
		werr <- err
	}()

	hbInterval := time.Duration(req.HeartbeatMS) * time.Millisecond
	if hbInterval <= 0 {
		hbInterval = defaultHeartbeatMS * time.Millisecond
	}
	hbDone := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		tick := time.NewTicker(hbInterval)
		defer tick.Stop()
		beat, _ := json.Marshal(wireMsg{Type: "beat"})
		beat = append(beat, '\n')
		for {
			select {
			case <-hbDone:
				return
			case <-tick.C:
				select {
				case lines <- wireLine{b: beat}:
				case <-hbDone:
					return
				}
			}
		}
	}()
	// The worker's own telemetry, when the coordinator asked for it: an
	// observer on the system clock whose events (if relaying) encode as
	// wire messages through the same single-writer line channel, so
	// telemetry and results never interleave mid-line. The relay sink never
	// blocks the run — a full ring drops events, same as everywhere else.
	var (
		wo    *obs.Observer
		relay *obs.Sink
	)
	if req.RelayEvents || req.WantSnapshot {
		if req.RelayEvents {
			relay = obs.NewRelaySink(func(ev obs.Event) {
				payload, err := json.Marshal(ev)
				if err != nil {
					return
				}
				line, err := json.Marshal(wireMsg{Type: "event", Payload: payload})
				if err != nil {
					return
				}
				lines <- wireLine{b: append(line, '\n')}
			}, 0)
		}
		wo = obs.New(obs.Config{Clock: obs.SystemClock(), Sink: relay})
		wo.SetTrace(req.TraceID)
	}

	// Orderly shutdown on every path: stop the heartbeat, drain the event
	// relay (it feeds the line channel, so it must close first), then close
	// the line stream and collect the writer's error.
	finish := func() error {
		close(hbDone)
		hbWg.Wait()
		if relay != nil {
			_ = relay.Close()
		}
		close(lines)
		return <-werr
	}

	if runner == nil {
		runner = core.CampaignRunner{}
	}
	sent := 0
	for j := range req.Points {
		if err := ctx.Err(); err != nil {
			_ = finish()
			return err
		}
		res, err := runPoint(ctx, runner, req.Points[j], req.What, req.Workers, wo)
		if err != nil {
			ferr := finish()
			_ = writeFatal(w, err) // the stream is closed; write the error marker directly
			if ferr != nil {
				return ferr
			}
			return err
		}
		res.Index = req.Indices[j]
		payload, err := json.Marshal(res)
		if err != nil {
			_ = finish()
			return writeFatal(w, fmt.Errorf("encoding result: %w", err))
		}
		sum := sha256.Sum256(payload)
		line, err := json.Marshal(wireMsg{Type: "result", Sum: hex.EncodeToString(sum[:]), Payload: payload})
		if err != nil {
			_ = finish()
			return writeFatal(w, fmt.Errorf("encoding message: %w", err))
		}
		lines <- wireLine{b: append(line, '\n'), result: true}
		sent++
	}
	doneMsg := wireMsg{Type: "done", Results: sent}
	if req.WantSnapshot && wo != nil {
		snap := wo.Registry().Snapshot()
		doneMsg.Snapshot = &snap
	}
	doneLine, _ := json.Marshal(doneMsg)
	lines <- wireLine{b: append(doneLine, '\n')}
	return finish()
}

// wireLine is one queued stdout line; result marks lines that count
// toward the chaos exit hook.
type wireLine struct {
	b      []byte
	result bool
}

// writeFatal reports a worker-side fatal error on the protocol stream (so
// the coordinator logs a cause, not just an exit status) and returns it
// for the process's own exit path.
func writeFatal(w io.Writer, err error) error {
	line, merr := json.Marshal(wireMsg{Type: "error", Error: err.Error()})
	if merr == nil {
		_, _ = w.Write(append(line, '\n'))
	}
	return err
}
