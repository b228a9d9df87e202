package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/serve/apitypes"
)

// ErrWatchEvicted: the server ended a watch stream without a summary,
// which means this subscriber fell behind the broadcast and was
// evicted (or the connection was cut). The missed frames are still in
// the room's history — re-attach at the last delivered sequence + 1.
// FollowWatch does exactly that automatically.
var ErrWatchEvicted = errors.New("client: watch stream ended without summary (evicted or cut)")

// Watch attaches once to a telemetry room's SSE stream at sequence
// from, calling fn for every frame in order (a non-nil fn error aborts
// the attach) and returning the stream-ending summary: Done=true when
// the room's run finished, Draining=true when the daemon is going away
// (re-attach at NextSeq). An eviction ends the attach with
// ErrWatchEvicted. Like every stream, only the request is retried on
// backpressure; once the stream is open it is read once, and
// FollowWatch handles reconnection.
func (c *Client) Watch(ctx context.Context, room string, from int, fn func(apitypes.WatchFrame) error) (apitypes.WatchSummary, error) {
	var summary apitypes.WatchSummary
	resp, err := c.attach(ctx, func() (*http.Response, error) {
		req, err := c.request(ctx, http.MethodGet, fmt.Sprintf("/v1/watch/%s?from=%d", url.PathEscape(room), from), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set("Accept", "text/event-stream")
		return c.do(req)
	})
	if err != nil {
		return summary, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		e, err := apitypes.ReadSSEEvent(br)
		if err == io.EOF {
			return summary, ErrWatchEvicted
		}
		if err != nil {
			return summary, fmt.Errorf("client: bad watch stream: %w", err)
		}
		switch e.Event {
		case apitypes.WatchEventFrame:
			var f apitypes.WatchFrame
			if err := json.Unmarshal(e.Data, &f); err != nil {
				return summary, fmt.Errorf("client: bad watch frame: %w", err)
			}
			if fn != nil {
				if err := fn(f); err != nil {
					return summary, err
				}
			}
		case apitypes.WatchEventSummary:
			if err := json.Unmarshal(e.Data, &summary); err != nil {
				return summary, fmt.Errorf("client: bad watch summary: %w", err)
			}
			return summary, nil
		}
		// Unknown event types are skipped for forward compatibility.
	}
}

// FollowWatch streams a room to completion, transparently re-attaching
// from the last delivered sequence across evictions, server drains and
// connection cuts: every frame is delivered exactly once, in sequence
// order, as long as the room's history still covers the resume point.
// When it does not, the follow fails with an error wrapping ErrGone —
// the gap is unrecoverable and silently skipping frames would betray
// the gapless contract. A summary that is neither done nor draining (a
// room closed without finishing, such as an abandoned job's) ends the
// follow too. from is the first sequence wanted (0 for the oldest
// retained). It runs the same re-attach loop as FollowJob.
func (c *Client) FollowWatch(ctx context.Context, room string, from int, fn func(apitypes.WatchFrame) error) (apitypes.WatchSummary, error) {
	return follow(ctx, c, from, fn,
		func(from int, fn func(apitypes.WatchFrame) error) (apitypes.WatchSummary, error) {
			return c.Watch(ctx, room, from, fn)
		},
		func(f apitypes.WatchFrame) int { return f.Seq },
		func(s apitypes.WatchSummary) (bool, bool, int) { return s.Done, s.Draining, s.NextSeq })
}
