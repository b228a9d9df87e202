package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro/internal/serve/apitypes"
)

// SubmitJob submits a durable background job and returns its queued
// JobInfo. The submit is retried on backpressure like any request; the
// job itself survives server restarts once accepted.
func (c *Client) SubmitJob(ctx context.Context, req apitypes.JobRequest) (apitypes.JobInfo, error) {
	var info apitypes.JobInfo
	err := c.retry(ctx, func() error {
		return c.call(ctx, http.MethodPost, "/v1/jobs", req, &info)
	})
	return info, err
}

// Job polls one job's current snapshot.
func (c *Client) Job(ctx context.Context, id string) (apitypes.JobInfo, error) {
	var info apitypes.JobInfo
	err := c.call(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Jobs lists jobs in submission order; tenant "" lists every tenant.
func (c *Client) Jobs(ctx context.Context, tenant string) ([]apitypes.JobInfo, error) {
	path := "/v1/jobs"
	if tenant != "" {
		path += "?tenant=" + url.QueryEscape(tenant)
	}
	var list apitypes.JobListResponse
	err := c.call(ctx, http.MethodGet, path, nil, &list)
	return list.Jobs, err
}

// CancelJob cancels a job, interrupting its in-flight cells. Canceling
// a finished job is a no-op returning its terminal snapshot.
func (c *Client) CancelJob(ctx context.Context, id string) (apitypes.JobInfo, error) {
	var info apitypes.JobInfo
	err := c.retry(ctx, func() error {
		return c.call(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &info)
	})
	return info, err
}

// StreamJob attaches to a job's frame stream at sequence from, calling
// fn for every frame (a non-nil fn error aborts the attach) and
// returning the stream's final summary — Done=true when the job
// finished, or Done=false with NextSeq when the server ended the
// stream early (drain). One attach is one stream: the request is
// retried on backpressure until it opens, and a stream cut after that
// is an error, never a second request from the same sequence.
// FollowJob layers reconnection on top.
func (c *Client) StreamJob(ctx context.Context, id string, from int, fn func(apitypes.JobFrame) error) (apitypes.JobStreamSummary, error) {
	resp, err := c.attach(ctx, func() (*http.Response, error) {
		return c.send(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%s/stream?from=%d", url.PathEscape(id), from), nil)
	})
	if err != nil {
		return apitypes.JobStreamSummary{}, err
	}
	defer resp.Body.Close()
	return readStream[apitypes.JobStreamSummary](resp.Body, fn)
}

// FollowJob streams a job to completion, transparently re-attaching
// from the last delivered sequence across server drains and restarts:
// every frame is delivered exactly once, in sequence order, no matter
// how many times the daemon bounces underneath. Transport errors, cut
// streams and not-yet-restarted gaps are retried with the client's
// backoff for as long as ctx allows; a 404 (the job is unknown or
// collected) and a non-nil fn error end the follow. from is the first
// sequence wanted (0 for the whole job).
func (c *Client) FollowJob(ctx context.Context, id string, from int, fn func(apitypes.JobFrame) error) (apitypes.JobStreamSummary, error) {
	return follow(ctx, c, from, fn,
		func(from int, fn func(apitypes.JobFrame) error) (apitypes.JobStreamSummary, error) {
			return c.StreamJob(ctx, id, from, fn)
		},
		func(f apitypes.JobFrame) int { return f.Seq },
		func(s apitypes.JobStreamSummary) (bool, bool, int) { return s.Done, s.Draining, s.NextSeq })
}

// WaitJob polls until the job reaches a terminal state (or ctx ends),
// returning the final snapshot. Poll-based alternative to FollowJob
// for callers that only want the outcome, not the frames.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (apitypes.JobInfo, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		info, err := c.Job(ctx, id)
		if err == nil && info.State.Terminal() {
			return info, nil
		}
		if err != nil && !retryable(err) {
			return info, err
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return apitypes.JobInfo{}, ctx.Err()
		}
	}
}
