package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/runner"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/jobs"
	"repro/internal/serve/rooms"
)

// drainPollInterval bounds how long a job stream keeps writing after
// the daemon starts draining: between frames the handler re-checks the
// drain flag at this cadence and ends the stream with a resumable
// summary once it flips.
const drainPollInterval = 250 * time.Millisecond

// handleJobSubmit: POST /v1/jobs. The grid is expanded and validated
// synchronously (a bad sweep fails fast with 400); the job itself is
// durably recorded and picked up by the scheduler, so the 202 response
// is the JobInfo still in state queued.
func (f *Frontend) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	defer f.ObserveLatency(f.CountRequest(), "jobs")
	if f.RejectDraining(w) {
		return
	}
	req, err := DecodeJobRequest(r.Body)
	if err == nil {
		// The forced sample interval is persisted with the job, so cells
		// resumed after a restart sample at the same interval.
		err = f.prepareWatch(req.Watch, &req.SampleInterval)
	}
	if err != nil {
		f.writeInvalid(w, err)
		return
	}
	cells, err := f.ExpandSweep(req.SweepRequest)
	if err != nil {
		f.writeInvalid(w, err)
		return
	}
	refs := make([]apitypes.CellRef, len(cells))
	for i, c := range cells {
		refs[i] = c.Ref
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	info, err := f.jobs.Submit(tenant, req.SweepRequest, refs)
	if err != nil {
		f.WriteFailure(w, err)
		return
	}
	if req.Watch {
		info.WatchRoom = f.roomForJob(info.ID).Code()
	}
	WriteJSON(w, http.StatusAccepted, info)
}

// handleJobList: GET /v1/jobs[?tenant=], submission order.
func (f *Frontend) handleJobList(w http.ResponseWriter, r *http.Request) {
	defer f.ObserveLatency(f.CountRequest(), "jobs")
	list := f.jobs.Store().List(r.URL.Query().Get("tenant"))
	for i := range list {
		f.watchRoomForJob(&list[i])
	}
	WriteJSON(w, http.StatusOK, apitypes.JobListResponse{Jobs: list})
}

// handleJobGet: GET /v1/jobs/{id} — the polling half of submit/poll.
func (f *Frontend) handleJobGet(w http.ResponseWriter, r *http.Request) {
	defer f.ObserveLatency(f.CountRequest(), "jobs")
	info, ok := f.jobs.Store().Get(r.PathValue("id"))
	if !ok {
		f.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, jobs.ErrNotFound)
		return
	}
	f.watchRoomForJob(&info)
	WriteJSON(w, http.StatusOK, info)
}

// handleJobCancel: DELETE /v1/jobs/{id}. Canceling a finished job is a
// no-op that returns its terminal snapshot.
func (f *Frontend) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	defer f.ObserveLatency(f.CountRequest(), "jobs")
	info, err := f.jobs.Cancel(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		f.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, err)
		return
	case err != nil:
		f.WriteFailure(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleJobStream: GET /v1/jobs/{id}/stream?from=N — NDJSON JobFrames
// from sequence N (default 0), then a JobStreamSummary. The stream
// tails a running job until it finishes; when the daemon drains the
// summary comes early with Done=false, Draining=true and NextSeq as the
// resume point for the next attach.
func (f *Frontend) handleJobStream(w http.ResponseWriter, r *http.Request) {
	defer f.ObserveLatency(f.CountRequest(), "jobs")
	id := r.PathValue("id")
	from, ok := f.streamFrom(w, r, 0)
	if !ok {
		return
	}
	st := f.jobs.Store()
	if _, ok := st.Get(id); !ok {
		f.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, jobs.ErrNotFound)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := from
	for {
		// Grab the watch channel before reading frames: a mutation between
		// the read and the select then leaves the channel already closed,
		// so no update can slip through unobserved.
		change, _ := st.Watch(id)
		frames, info, ok := st.Frames(id, next)
		if !ok {
			return // GC'd mid-stream; the client re-polls and gets 404
		}
		for _, fr := range frames {
			if err := enc.Encode(fr); err != nil {
				return // client hung up
			}
			next = fr.Seq + 1
		}
		if len(frames) > 0 && flusher != nil {
			flusher.Flush()
		}
		if info.State.Terminal() {
			f.writeStreamSummary(enc, flusher, info, next, false)
			return
		}
		if f.Draining() {
			f.writeStreamSummary(enc, flusher, info, next, true)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-change:
		case <-time.After(drainPollInterval):
			// Re-check the drain flag; there is no drain channel because
			// SetDraining(false) must stay possible.
		}
	}
}

// streamFrom parses the ?from=N resume point of a job or watch stream;
// an absent from is dflt. Anything but a non-negative integer answers
// 400 bad_request and reports false.
func (f *Frontend) streamFrom(w http.ResponseWriter, r *http.Request, dflt int) (int, bool) {
	q := r.URL.Query().Get("from")
	if q == "" {
		return dflt, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		f.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest,
			errors.New("serve: from must be a non-negative integer"))
		return 0, false
	}
	return n, true
}

func (f *Frontend) writeStreamSummary(enc *json.Encoder, flusher http.Flusher, info apitypes.JobInfo, next int, draining bool) {
	_ = enc.Encode(apitypes.JobStreamSummary{
		Done:     info.State.Terminal(),
		State:    info.State,
		Cells:    info.Cells,
		Failed:   info.FailedCells,
		Resumed:  info.ResumedCells,
		NextSeq:  next,
		Draining: draining,
	})
	if flusher != nil {
		flusher.Flush()
	}
}

// runJob is the jobs.RunCells the manager drives: the job's pending
// cells run as one executor sweep, through the same resolve → cache →
// coalesce → admission → engine path as an interactive sweep, each
// under its own timeout_ms. A simulation failure becomes a failed frame
// (CellResult.Error set); a failure after the job's context ended is
// abandonment — the manager is stopping or the job was canceled — so
// no frame is emitted and the cell stays pending for resume.
func (f *Frontend) runJob(ctx context.Context, info apitypes.JobInfo, refs []apitypes.CellRef, emit func(apitypes.CellResult)) {
	var room *rooms.Room
	var sinkFor func(Cell) func(runner.LiveSample)
	if info.Sweep.Watch {
		room = f.roomForJob(info.ID)
		sinkFor = func(c Cell) func(runner.LiveSample) { return roomSink(room, cellName(c)) }
	}
	timeout := f.timeout(info.Sweep.TimeoutMs, f.opts.MaxTimeout)
	cells := make([]Cell, 0, len(refs))
	for _, ref := range refs {
		cell, err := f.resolveCell(ref.Workload, ref.Mode, info.Sweep.MaxCycles, info.Sweep.SampleInterval)
		if err != nil {
			// The grid was validated at submit, so this means the catalog
			// changed across a restart: a permanent, per-cell failure.
			res := apitypes.CellResult{Workload: ref.Workload, Mode: ref.Mode}
			f.settleCell(room, &res, err)
			emit(res)
			continue
		}
		cell.Timeout = timeout
		cells = append(cells, cell)
	}
	f.exec.Sweep(ctx, info.Sweep, cells, sinkFor, func(res apitypes.CellResult, err error) {
		if err != nil && ctx.Err() != nil {
			return
		}
		f.settleCell(room, &res, err)
		emit(res)
	})
}

// Drain stops the job scheduler, waits (bounded by ctx) for in-flight
// cells, and closes the WAL. Queued and running jobs stay in the log
// and resume on the next daemon start; draining job streams already
// told their clients where to re-attach. Daemon.Run calls it once
// the HTTP side is quiet.
func (s *Server) Drain(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Drain(ctx)
}

// KillJobs is the SIGKILL-equivalent test seam: stop the job subsystem
// with no final state writes, leaving the WAL exactly as a dead process
// would. Production shutdown uses Drain.
func (s *Server) KillJobs() {
	if s.jobs != nil {
		s.jobs.Kill()
	}
}
