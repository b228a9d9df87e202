package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve/apitypes"
	"repro/internal/serve/rooms"
)

// watchKeepAliveEvery is how many drain-poll ticks pass between SSE
// comment keep-alives on an idle watch stream (~15s at 250ms/tick):
// often enough to hold intermediaries open, rare enough to cost
// nothing.
const watchKeepAliveEvery = 60

// handleWatch: GET /v1/watch/{room}?from=N — the telemetry room SSE
// stream. Retained frames from sequence N replay immediately, then the
// stream follows the live broadcast. Every event's id: is its frame
// sequence, so both ?from=N and the standard Last-Event-ID reconnect
// resume gaplessly. The stream ends with a "summary" event when the
// room closes or the daemon drains (Draining=true → re-attach at
// next_seq); an eviction for falling behind ends the stream with no
// summary — re-attaching replays the missed frames from history.
func (f *Frontend) handleWatch(w http.ResponseWriter, r *http.Request) {
	defer f.ObserveLatency(f.CountRequest(), "watch")

	// Without ?from, a standard SSE reconnect resumes after its
	// Last-Event-ID.
	resume := 0
	if n, err := strconv.Atoi(r.Header.Get("Last-Event-ID")); err == nil && n >= 0 {
		resume = n + 1
	}
	from, ok := f.streamFrom(w, r, resume)
	if !ok {
		return
	}

	room, err := f.rooms.Get(r.PathValue("room"))
	if err != nil {
		f.WriteError(w, http.StatusNotFound, apitypes.CodeNotFound, err)
		return
	}
	replay, sub, sum, err := room.Subscribe(from, 0)
	if err != nil {
		// Only ErrGone: the resume point fell out of history.
		f.WriteError(w, http.StatusGone, apitypes.CodeGone, err)
		return
	}
	defer room.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // no proxy buffering
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	var buf []byte // reused encode buffer: one allocation steady-state
	next := from
	writeFrame := func(fr apitypes.WatchFrame) bool {
		blob, err := json.Marshal(fr)
		if err != nil {
			return false
		}
		buf = apitypes.AppendSSEEvent(buf[:0], apitypes.SSEEvent{
			ID:    strconv.Itoa(fr.Seq),
			Event: apitypes.WatchEventFrame,
			Data:  blob,
		})
		if _, err := w.Write(buf); err != nil {
			return false // client hung up
		}
		next = fr.Seq + 1
		return true
	}
	writeSummary := func(sum apitypes.WatchSummary) {
		blob, err := json.Marshal(sum)
		if err != nil {
			return
		}
		buf = apitypes.AppendSSEEvent(buf[:0], apitypes.SSEEvent{
			Event: apitypes.WatchEventSummary,
			Data:  blob,
		})
		_, _ = w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}

	for _, fr := range replay {
		if !writeFrame(fr) {
			return
		}
	}
	if len(replay) > 0 && flusher != nil {
		flusher.Flush()
	}
	if sum != nil {
		writeSummary(*sum)
		return
	}
	if flusher != nil {
		flusher.Flush() // commit the headers even with nothing to replay
	}

	ticks := 0
	for {
		select {
		case fr, open := <-sub.Ch():
			// Write the frame and any backlog, then flush once.
			for backlog := true; open && backlog; {
				if !writeFrame(fr) {
					return
				}
				select {
				case fr, open = <-sub.Ch():
				default:
					backlog = false
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
			if !open {
				// Closed with a summary, or evicted without one: end the
				// stream; an evicted client re-attaches at ?from=next and
				// heals from history.
				if final := sub.Summary(); final != nil {
					writeSummary(*final)
				}
				return
			}
		case <-r.Context().Done():
			return
		case <-time.After(drainPollInterval):
			if f.Draining() {
				writeSummary(apitypes.WatchSummary{Frames: next, NextSeq: next, Draining: true})
				return
			}
			ticks++
			if ticks%watchKeepAliveEvery == 0 {
				if _, err := w.Write([]byte(": keep-alive\n\n")); err != nil {
					return
				}
				if flusher != nil {
					flusher.Flush()
				}
			}
		}
	}
}

// roomForJob returns the job's telemetry room, creating it (and its
// closer goroutine) on first use. Get-or-create keyed on the job ID
// makes the submit-response/scheduler race benign and recreates rooms
// for watch jobs resumed after a restart.
func (f *Frontend) roomForJob(id string) *rooms.Room {
	f.jobRoomsMu.Lock()
	defer f.jobRoomsMu.Unlock()
	if room, ok := f.jobRooms[id]; ok {
		return room
	}
	room := f.rooms.Open()
	f.jobRooms[id] = room
	go f.closeRoomWhenJobDone(id, room)
	return room
}

// watchRoomForJob decorates a JobInfo with its room code, when a room
// exists and is still attachable (lookup only — a finished job must
// not sprout a room).
func (f *Frontend) watchRoomForJob(info *apitypes.JobInfo) {
	f.jobRoomsMu.Lock()
	room, ok := f.jobRooms[info.ID]
	f.jobRoomsMu.Unlock()
	if !ok {
		return
	}
	if _, err := f.rooms.Get(room.Code()); err != nil {
		// Expired and collected: drop the stale mapping.
		f.jobRoomsMu.Lock()
		if f.jobRooms[info.ID] == room {
			delete(f.jobRooms, info.ID)
		}
		f.jobRoomsMu.Unlock()
		return
	}
	info.WatchRoom = room.Code()
}

// closeRoomWhenJobDone follows the job store until the job reaches a
// terminal state, then seals its room so watchers get their summary.
// If the daemon shuts down first the room simply dies with the
// process — watch streams end via their own drain checks.
func (f *Frontend) closeRoomWhenJobDone(id string, room *rooms.Room) {
	st := f.jobs.Store()
	for {
		change, ok := st.Watch(id)
		info, found := st.Get(id)
		if !ok || !found {
			room.Close(apitypes.WatchSummary{Done: false})
			return
		}
		if info.State.Terminal() {
			room.Close(apitypes.WatchSummary{Done: true})
			return
		}
		<-change
	}
}
