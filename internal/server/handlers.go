package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fastsc/internal/compile"
)

// routes mounts the API surface documented in docs/api.md.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompileStream)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/batches/{id}", s.handlePoll)
	s.mux.HandleFunc("GET /v1/meta", s.handleMeta)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
}

// withBatchDeadline derives the batch's compile context from parent: when
// the request carries deadline_ms, the context expires at that absolute
// time with compile.ErrDeadline as its cause, so every job skipped after
// expiry reports a typed deadline error end to end.
func withBatchDeadline(parent context.Context, pb *parsedBatch) (context.Context, context.CancelFunc) {
	if pb.deadlineAt.IsZero() {
		return context.WithCancel(parent)
	}
	return context.WithDeadlineCause(parent, pb.deadlineAt, compile.ErrDeadline)
}

// decodeRequest reads and validates a CompileRequest body.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*parsedBatch, *apiError) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return nil, badRequest("invalid JSON: %v", err)
	}
	return s.parseRequest(&req)
}

// handleCompileStream serves POST /v1/compile: parse, admit, then stream
// one NDJSON ResultLine per job in completion order followed by the
// DoneLine. The HTTP status is committed before the first result, so
// per-job failures arrive as "error" lines, not as an HTTP error.
func (s *Server) handleCompileStream(w http.ResponseWriter, r *http.Request) {
	s.mStreams.Add(1)
	pb, aerr := s.decodeRequest(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	tkt, release, aerr := s.admit(pb)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	defer release()
	ctx, cancel := withBatchDeadline(r.Context(), pb)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(line any) error {
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	s.runBatch(ctx, pb, "", tkt, emit, nil)
}

// handleSubmit serves POST /v1/batches: parse, admit, then run the batch
// in the background and acknowledge with 202 and a poll URL. Accepted
// batches always run to completion (they are not tied to the submitting
// connection), including across a drain.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mSubmits.Add(1)
	pb, aerr := s.decodeRequest(w, r)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	tkt, release, aerr := s.admit(pb)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	rec := s.store.add(len(pb.jobs), pb.prio)
	go func() {
		defer release()
		// Accepted batches are not tied to the submitting connection, so
		// the compile context descends from Background, carrying only the
		// request's own deadline.
		ctx, cancel := withBatchDeadline(context.Background(), pb)
		defer cancel()
		done, status := s.runBatch(ctx, pb, rec.id, tkt, rec.appendLine, rec.setRunning)
		rec.finish(done, status)
	}()
	w.Header().Set("Location", "/v1/batches/"+rec.id)
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		Batch:  rec.id,
		Status: "queued",
		Jobs:   len(pb.jobs),
		URL:    "/v1/batches/" + rec.id,
	})
}

// handlePoll serves GET /v1/batches/{id}.
func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	s.mPolls.Add(1)
	rec := s.store.get(r.PathValue("id"))
	if rec == nil {
		writeError(w, &apiError{status: http.StatusNotFound,
			msg: fmt.Sprintf("unknown batch %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, rec.snapshot())
}

// handleMeta serves GET /v1/meta.
func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, meta())
}

// handleHealth serves GET /healthz: pure liveness. It answers 200 "ok"
// whenever the process can serve HTTP at all — including while draining —
// so supervisors do not kill an instance that is merely busy. Traffic
// routing reads /readyz instead.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleReady serves GET /readyz: readiness. 503 "draining" once Drain has
// been called (load balancers rotate the terminating instance out while
// its in-flight batches finish), 200 "ready" otherwise. The daemon loads
// its cache snapshot before it listens, so a server that answers is warm.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ready\n")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, aerr *apiError) {
	if aerr.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfter))
	}
	writeJSON(w, aerr.status, ErrorResponse{Error: aerr.msg})
}
