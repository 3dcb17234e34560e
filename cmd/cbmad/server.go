package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"cbma/internal/obs"
	"cbma/internal/serve/batch"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// submitRequest is the POST /v1/campaigns body. Points unmarshal directly
// into sim.Scenario, whose JSON form IS the request schema (interferers
// included, e.g. "Interferers":[{"wifi":{"PowerDBm":-54}}]). Workers and Obs
// are not part of it: the daemon owns the execution budget and attaches
// telemetry per job. Trace replay is an engine call, not scenario data, so
// it runs through cbmasim.
type submitRequest struct {
	// What labels the campaign in errors, events and manifests.
	What string `json:"what"`
	// Class selects the batching compatibility class (see batch.Request).
	Class string `json:"class,omitempty"`
	// Points are the campaign points to run.
	Points []sim.Scenario `json:"points"`
	// Scenario is a single-point convenience alternative to Points.
	Scenario *sim.Scenario `json:"scenario,omitempty"`
}

// jobInfo is the status representation of one submission.
type jobInfo struct {
	ID      string             `json:"id"`
	What    string             `json:"what,omitempty"`
	Class   string             `json:"class,omitempty"`
	Points  int                `json:"points"`
	Status  string             `json:"status"` // pending | done | failed | canceled
	TraceID string             `json:"trace_id,omitempty"`
	Batch   int                `json:"batch,omitempty"`
	Error   string             `json:"error,omitempty"`
	Results []core.PointResult `json:"results,omitempty"`
}

// jobState tracks one accepted submission end to end: the batcher job, its
// cancel handle, the per-job telemetry pipeline (observer → sink →
// broadcaster) and, once finished, the run manifest.
type jobState struct {
	job    *batch.Job
	what   string
	class  string
	points int
	cancel context.CancelFunc
	bcast  *obs.Broadcaster
	sink   *obs.Sink
	jobObs *obs.Observer

	mu       sync.Mutex
	finished bool
	manifest *obs.Manifest
}

// server is the cbmad HTTP layer over the batch and core layers.
type server struct {
	batcher *batch.Batcher
	o       *obs.Observer // process-wide registry (cache/batch counters)
	// baseCtx bounds every job's lifetime to the daemon's; it is the one
	// place the request tree roots, set once at startup.
	baseCtx   context.Context //cbma:allow ctxflow daemon-lifetime root, audited seam
	maxPoints int
	maxBody   int64 // submit body byte cap, enforced by http.MaxBytesReader
	retain    int   // finished jobs kept for status queries

	wg sync.WaitGroup // tracks finishJob goroutines; drain() waits on it

	mu    sync.Mutex
	jobs  map[string]*jobState
	order []string // insertion order, for bounded retention
}

const (
	defaultMaxPoints = 4096
	defaultRetain    = 1024
	// defaultMaxBody bounds the submit body. Scenarios are a few hundred
	// bytes each, so 8 MiB clears the defaultMaxPoints worst case with
	// headroom while keeping a hostile (or runaway) client from buffering
	// the daemon into the ground.
	defaultMaxBody = 8 << 20
)

// newServer wires the HTTP layer. baseCtx bounds every job's execution
// (shutdown cancels it).
func newServer(baseCtx context.Context, b *batch.Batcher, o *obs.Observer) *server {
	return &server{
		batcher:   b,
		o:         o,
		baseCtx:   baseCtx,
		maxPoints: defaultMaxPoints,
		maxBody:   defaultMaxBody,
		retain:    defaultRetain,
		jobs:      make(map[string]*jobState),
	}
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/manifest", s.handleManifest)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", obs.PrometheusHandler(func() obs.Snapshot {
		return s.o.Registry().Snapshot()
	}))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// pprof and expvar, sharing the daemon's listener.
	mux.Handle("/debug/", obs.DebugHandler(s.o.Registry()))
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Bound the body before touching it: an oversized submission is a
	// distinct, explicit 413 rather than a mid-decode read error, and a
	// malformed one a 400 naming the decode failure.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	// A body with trailing garbage after the JSON document is malformed,
	// not a second document.
	if dec.More() {
		writeError(w, http.StatusBadRequest, "request body holds trailing data after the JSON document")
		return
	}
	points := req.Points
	if req.Scenario != nil {
		points = append(points, *req.Scenario)
	}
	if len(points) == 0 {
		writeError(w, http.StatusBadRequest, "submission has no points")
		return
	}
	if len(points) > s.maxPoints {
		writeError(w, http.StatusBadRequest, "submission has %d points, limit %d", len(points), s.maxPoints)
		return
	}
	// Reject unrunnable points at the door — a 400 now beats a failed job
	// later — and pin each point's content hash while we are at it.
	hashes := make([]string, len(points))
	for i := range points {
		h, err := points[i].Hash()
		if err != nil {
			writeError(w, http.StatusBadRequest, "point %d: %v", i, err)
			return
		}
		hashes[i] = h
	}

	// Per-job telemetry pipeline: events stream through a broadcaster so
	// any number of /events readers can replay and follow them. Each job
	// gets a trace ID up front, so even a pending job's events (and a
	// sharded run's worker relays) are correlated from the first line.
	bcast := obs.NewBroadcaster(0)
	sink := obs.NewSink(bcast, obs.DefaultSinkBuffer)
	jobObs := obs.New(obs.Config{Clock: obs.SystemClock(), Sink: sink})
	jobObs.EnsureTrace()
	for i := range points {
		points[i].Obs = jobObs
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	job, err := s.batcher.Submit(ctx, batch.Request{What: req.What, Class: req.Class, Points: points})
	if err != nil {
		cancel()
		_ = sink.Close()
		status := http.StatusInternalServerError
		if errors.Is(err, batch.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "submit: %v", err)
		return
	}
	st := &jobState{
		job:    job,
		what:   req.What,
		class:  req.Class,
		points: len(points),
		cancel: cancel,
		bcast:  bcast,
		sink:   sink,
		jobObs: jobObs,
	}
	s.register(job.ID(), st)
	// Bracket the per-job stream with lifecycle markers; the engine's own
	// round/fault events land between them.
	jobObs.Emit("job_accepted", map[string]any{
		"job": job.ID(), "what": req.What, "class": req.Class, "points": len(points),
	})
	s.wg.Add(1)
	go s.finishJob(st, points[0].Seed, hashes)

	w.Header().Set("Location", "/v1/campaigns/"+job.ID())
	writeJSON(w, http.StatusAccepted, s.info(st))
}

// finishJob waits for the job, flushes its event stream and assembles the
// per-request run manifest.
func (s *server) finishJob(st *jobState, seed int64, hashes []string) {
	defer s.wg.Done()
	results, jerr := st.job.Results()
	doneFields := map[string]any{"job": st.job.ID(), "batch": st.job.Batch()}
	if jerr != nil {
		doneFields["error"] = jerr.Error()
	}
	st.jobObs.Emit("job_done", doneFields)
	_ = st.sink.Close() // drains events, closes the broadcaster stream
	man := st.jobObs.Manifest("cbmad")
	// Event-loss ledger: the sink's own drops are in man.Events already;
	// fold in the broadcaster's subscriber-lag drops and replay truncation,
	// and mirror everything into the process registry so /v1/stats and
	// /metrics carry daemon-wide loss totals.
	man.Events.SubscribersDropped = st.bcast.SubscribersDropped()
	man.Events.ReplayTruncated = st.bcast.Truncated()
	s.o.Counter("obs.events.written").Add(man.Events.Written)
	s.o.Counter("obs.events.dropped").Add(man.Events.Dropped)
	s.o.Counter("obs.subscribers.dropped").Add(man.Events.SubscribersDropped)
	s.o.Counter("obs.replay.truncated_bytes").Add(man.Events.ReplayTruncated)
	man.Seed = seed
	man.Interrupted = errors.Is(jerr, context.Canceled) || errors.Is(jerr, context.DeadlineExceeded)
	man.Config = map[string]any{"what": st.what, "class": st.class, "points": hashes}
	if len(hashes) == 1 {
		man.ScenarioHash = hashes[0]
	} else if h, err := obs.HashJSON(hashes); err == nil {
		man.ScenarioHash = h
	}
	man.Result = results
	st.mu.Lock()
	st.finished = true
	st.manifest = &man
	st.mu.Unlock()
	st.cancel()
}

// drain blocks until every finishJob goroutine has completed. Call after
// the batcher has been closed (which resolves all outstanding jobs) so the
// wait is bounded.
func (s *server) drain() {
	s.wg.Wait()
}

// register stores a job state, evicting the oldest finished jobs beyond
// the retention bound so a long-lived daemon's status table stays flat.
func (s *server) register(id string, st *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[id] = st
	s.order = append(s.order, id)
	for len(s.jobs) > s.retain {
		evicted := false
		for i, oldID := range s.order {
			old := s.jobs[oldID]
			if old == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			old.mu.Lock()
			done := old.finished
			old.mu.Unlock()
			if done {
				delete(s.jobs, oldID)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything resident is still running; let it finish
		}
	}
}

func (s *server) lookup(id string) *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// info renders a job's current status.
func (s *server) info(st *jobState) jobInfo {
	inf := jobInfo{
		ID:      st.job.ID(),
		What:    st.what,
		Class:   st.class,
		Points:  st.points,
		Status:  "pending",
		TraceID: st.jobObs.TraceID(),
	}
	select {
	case <-st.job.Done():
		results, err := st.job.Results()
		inf.Results = results
		inf.Batch = st.job.Batch()
		switch {
		case err == nil:
			inf.Status = "done"
		case errors.Is(err, context.Canceled):
			inf.Status = "canceled"
			inf.Error = err.Error()
		default:
			inf.Status = "failed"
			inf.Error = err.Error()
		}
	default:
	}
	return inf
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]jobInfo, 0, len(ids))
	for _, id := range ids {
		if st := s.lookup(id); st != nil {
			inf := s.info(st)
			inf.Results = nil // list view stays light
			out = append(out, inf)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.info(st))
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	st.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": st.job.ID(), "status": "canceling"})
}

// handleEvents streams the job's JSONL events: full replay of what has
// already happened, then live follow until the job finishes or the client
// goes away. The stream is exactly what -obs writes to events.jsonl for
// the CLI tools.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	history, live, cancel := st.bcast.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if _, err := w.Write(history); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case chunk, ok := <-live:
			if !ok {
				return
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) handleManifest(w http.ResponseWriter, r *http.Request) {
	st := s.lookup(r.PathValue("id"))
	if st == nil {
		writeError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	st.mu.Lock()
	man := st.manifest
	st.mu.Unlock()
	if man == nil {
		writeError(w, http.StatusConflict, "campaign %q has not finished", st.job.ID())
		return
	}
	writeJSON(w, http.StatusOK, man)
}

// handleStats serves the process-wide registry snapshot — cache hit/miss
// counters, batch flush counters, campaign timings.
func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.o.Registry().Snapshot())
}
