package client

import (
	"context"
	"io"
	"net/http"
	"os"

	"repro/internal/serve/apitypes"
)

// UploadTrace streams an IMTTRC blob to POST /v1/traces and returns the
// store's response: the content address (SHA-256 digest) plus whether
// the blob was freshly committed or already resident. The body is read
// exactly once, so there are no retries — callers that can re-open the
// source should use UploadTraceFile, which retries with a fresh reader
// per attempt. Uploading the same bytes twice is always safe: the
// second call is a content-address hit (Created false).
func (c *Client) UploadTrace(ctx context.Context, r io.Reader) (apitypes.TraceUploadResponse, error) {
	var out apitypes.TraceUploadResponse
	err := c.call(ctx, http.MethodPost, "/v1/traces", r, &out)
	return out, err
}

// UploadTraceFile uploads the trace blob at path, re-opening the file
// for each attempt so backpressure responses retry under the client's
// normal policy.
func (c *Client) UploadTraceFile(ctx context.Context, path string) (apitypes.TraceUploadResponse, error) {
	var out apitypes.TraceUploadResponse
	err := c.retry(ctx, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out, err = c.UploadTrace(ctx, f)
		return err
	})
	return out, err
}

// Traces lists the server's stored traces. Against an imtgw gateway the
// listing is the digest-deduplicated union across reachable shards.
func (c *Client) Traces(ctx context.Context) (apitypes.TraceListResponse, error) {
	var out apitypes.TraceListResponse
	err := c.call(ctx, http.MethodGet, "/v1/traces", nil, &out)
	return out, err
}

// TraceStat fetches one stored trace's metadata. An absent digest is
// ErrTraceNotFound.
func (c *Client) TraceStat(ctx context.Context, digest string) (apitypes.TraceInfo, error) {
	var out apitypes.TraceInfo
	err := c.call(ctx, http.MethodGet, "/v1/traces/"+digest, nil, &out)
	return out, err
}

// DeleteTrace removes a stored trace, returning the deleted trace's
// metadata. A trace pinned by a running replay or referenced by a
// queued job is ErrTraceInUse; an absent digest is ErrTraceNotFound.
func (c *Client) DeleteTrace(ctx context.Context, digest string) (apitypes.TraceInfo, error) {
	var out apitypes.TraceInfo
	err := c.call(ctx, http.MethodDelete, "/v1/traces/"+digest, nil, &out)
	return out, err
}

// OpenTrace opens a stored trace's raw IMTTRC bytes for streaming: the
// response body, returned only once the status says the blob is there
// (an absent digest is ErrTraceNotFound). The caller closes it. The
// blob is read incrementally — a multi-GB trace never materializes in
// memory on either side.
func (c *Client) OpenTrace(ctx context.Context, digest string) (io.ReadCloser, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/traces/"+digest+"?raw=1", nil)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}
