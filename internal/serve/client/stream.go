package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve/apitypes"
)

// errNoSummary: an NDJSON stream ended before its summary line — the
// server died or the connection was cut mid-stream. It is a transport
// failure, so a follow re-attaches after it.
var errNoSummary = errors.New("client: stream ended without a summary line")

// attach runs open under retry until it yields a 2xx response and
// returns that response with its body unread. This is the one rule for
// every stream: only the request is ever retried, and the body is then
// read exactly once, so a stream cut after its 200 is never requested
// again from its old position. The caller closes the body.
func (c *Client) attach(ctx context.Context, open func() (*http.Response, error)) (*http.Response, error) {
	var resp *http.Response
	err := c.retry(ctx, func() (err error) {
		resp, err = open()
		return err
	})
	return resp, err
}

// readStream reads the NDJSON body of a sweep or a job stream: every
// line before the summary decodes as an item T handed to fn in order
// (a non-nil fn error ends the read with that error), and the summary
// S is the one line with a top-level "done" key. Blank lines are
// skipped, a line may be up to MaxRequestBytes long, and a body that
// ends before its summary is errNoSummary.
func readStream[S, T any](body io.Reader, fn func(T) error) (S, error) {
	var summary S
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), apitypes.MaxRequestBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Sniff for the summary before committing to an item decode.
		var probe struct {
			Done *bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done != nil {
			if err := json.Unmarshal(line, &summary); err != nil {
				return summary, fmt.Errorf("client: bad summary line: %w", err)
			}
			return summary, nil
		}
		var item T
		if err := json.Unmarshal(line, &item); err != nil {
			return summary, fmt.Errorf("client: bad stream line: %w", err)
		}
		if fn != nil {
			if err := fn(item); err != nil {
				return summary, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return summary, fmt.Errorf("client: reading stream: %w", err)
	}
	return summary, errNoSummary
}

// follow is the one re-attach loop behind FollowJob and FollowWatch.
// stream attaches once at a sequence; seq reads a frame's sequence and
// end a summary's done and draining flags and next_seq. Each frame
// reaches fn exactly once, in order, because every attach starts at the
// sequence after the last one delivered. follow returns on a done
// summary and on one that is neither done nor draining. After a drain
// summary it resumes at max(next, next_seq), and after a retryable
// error at the next undelivered sequence, each following the client's
// backoff. It stops when ctx ends, on a non-retryable error, and when
// fn fails.
func follow[S, F any](ctx context.Context, c *Client, from int, fn func(F) error,
	stream func(from int, fn func(F) error) (S, error),
	seq func(F) int, end func(S) (done, draining bool, next int)) (S, error) {
	next, backoff := from, c.BaseBackoff
	for {
		var fnErr error
		summary, err := stream(next, func(f F) error {
			if fnErr = fn(f); fnErr == nil {
				next = seq(f) + 1
			}
			return fnErr
		})
		done, draining, resume := end(summary)
		switch {
		case err == nil && (done || !draining):
			return summary, nil
		case err == nil:
			// The daemon is going away; its next_seq is at least our
			// own high-water mark.
			next = max(next, resume)
		case ctx.Err() != nil:
			return summary, ctx.Err()
		case fnErr != nil || !retryable(err):
			return summary, err
		}
		if backoff, err = c.wait(ctx, backoff, 0); err != nil {
			var zero S
			return zero, err
		}
	}
}
