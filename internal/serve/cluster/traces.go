package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/serve"
	"repro/internal/serve/apitypes"
	"repro/internal/serve/client"
	"repro/internal/tracestore"
)

// Trace blobs are shard-scoped (each shard has its own -trace-dir), but
// the gateway keeps the single-endpoint illusion: uploads land on the
// first routable shard (deterministic, so re-uploading the same blob
// through the gateway is a content-address hit), reads find whichever
// shard holds the digest, and trace-backed cells that route to a shard
// missing the blob trigger a shard-to-shard push (ensureTrace) instead
// of a client-visible failure.

// fleetTraces is the gateway's serve.TraceStore, served over its
// shards' /v1/traces routes.
type fleetTraces struct{ *Gateway }

// Traces is the fleet's trace store.
func (g *Gateway) Traces() serve.TraceStore { return fleetTraces{g} }

// Put streams the upload through to the first routable shard. The body
// is consumed by that one attempt, so a transport failure mid-upload
// cannot be retried here — the client re-sends (its own
// UploadTraceFile does this).
func (g fleetTraces) Put(ctx context.Context, body io.Reader) (apitypes.TraceUploadResponse, error) {
	for _, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		up, err := g.pool.Raw(ss.url).UploadTrace(ctx, body)
		var apiErr *client.APIError
		if err != nil && !errors.As(err, &apiErr) {
			g.shardFailed(ss)
			return up, &client.APIError{
				StatusCode: http.StatusBadGateway,
				Code:       apitypes.CodeInternal,
				Message:    fmt.Sprintf("cluster: upload to shard %s failed mid-stream: %v (re-send the upload)", ss.url, err),
			}
		}
		return up, err
	}
	return apitypes.TraceUploadResponse{}, errNoShard
}

// List is the digest-deduplicated union of every routable shard's
// listing. TotalBytes counts each distinct blob once; QuotaBytes sums
// the per-shard quotas (the fleet's capacity).
func (g fleetTraces) List(ctx context.Context) apitypes.TraceListResponse {
	rows := make([]*apitypes.TraceListResponse, len(g.shards))
	var wg sync.WaitGroup
	for i, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, statszTimeout)
			defer cancel()
			// Shards without -trace-dir answer 404; unreachable shards
			// fail. Either way they hold no traces to merge.
			if list, err := g.pool.Raw(url).Traces(sctx); err == nil {
				rows[i] = &list
			}
		}(i, ss.url)
	}
	wg.Wait()
	merged := apitypes.TraceListResponse{Traces: []apitypes.TraceInfo{}}
	seen := make(map[string]bool)
	for _, row := range rows {
		if row == nil {
			continue
		}
		merged.QuotaBytes += row.QuotaBytes
		for _, info := range row.Traces {
			if seen[info.Digest] {
				continue
			}
			seen[info.Digest] = true
			merged.Traces = append(merged.Traces, info)
			merged.TotalBytes += info.Bytes
		}
	}
	return merged
}

// Stat answers from the first routable shard holding the digest.
func (g fleetTraces) Stat(ctx context.Context, digest string) (apitypes.TraceInfo, error) {
	_, info, err := g.findTrace(ctx, digest)
	return info, err
}

// Open streams the blob from the first routable shard holding it; the
// gateway never spools the bytes.
func (g fleetTraces) Open(ctx context.Context, digest string) (apitypes.TraceInfo, io.ReadCloser, error) {
	url, info, err := g.findTrace(ctx, digest)
	if err != nil {
		return info, nil, err
	}
	blob, err := g.pool.Raw(url).OpenTrace(ctx, digest)
	return info, blob, err
}

// Delete fans out to every routable shard (the blob may be resident on
// several after pushes). Any shard's in-use refusal wins — the trace
// still exists; otherwise the delete succeeds if at least one shard
// held the blob.
func (g fleetTraces) Delete(ctx context.Context, digest string) (apitypes.TraceInfo, error) {
	var deleted *apitypes.TraceInfo
	var inUse error
	for _, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		info, err := g.pool.Raw(ss.url).DeleteTrace(ctx, digest)
		switch {
		case err == nil:
			deleted = &info
		case errors.Is(err, client.ErrTraceInUse):
			inUse = fmt.Errorf("cluster: shard %s: %w", ss.url, tracestore.ErrInUse)
		}
	}
	switch {
	case inUse != nil:
		return apitypes.TraceInfo{}, inUse
	case deleted != nil:
		return *deleted, nil
	}
	return apitypes.TraceInfo{}, fmt.Errorf("cluster: trace %s not found on any shard: %w", digest, tracestore.ErrNotFound)
}

// findTrace locates the first routable shard holding digest.
func (g *Gateway) findTrace(ctx context.Context, digest string) (string, apitypes.TraceInfo, error) {
	var lastErr error = errNoShard
	for _, ss := range g.shards {
		if !ss.br.routable() {
			continue
		}
		info, err := g.pool.Raw(ss.url).TraceStat(ctx, digest)
		if err == nil {
			return ss.url, info, nil
		}
		lastErr = err
	}
	return "", apitypes.TraceInfo{}, lastErr
}

// ensureTrace makes digest resident on the target shard, copying the
// blob over from whichever shard holds it: the source's raw response
// body is the target's upload body, so the gateway never spools the
// bytes. Returns nil when the target already holds the blob. The
// upload's returned digest must round-trip exactly: content addressing
// makes corruption in transit a hard failure, not a silent cache entry.
func (g *Gateway) ensureTrace(ctx context.Context, target, digest string) error {
	tc := g.pool.Raw(target)
	if _, err := tc.TraceStat(ctx, digest); err == nil {
		return nil
	} else if !errors.Is(err, client.ErrTraceNotFound) {
		return err
	}
	for _, ss := range g.shards {
		if ss.url == target || !ss.br.routable() {
			continue
		}
		blob, err := g.pool.Raw(ss.url).OpenTrace(ctx, digest)
		if err != nil {
			continue
		}
		up, err := tc.UploadTrace(ctx, blob)
		blob.Close()
		if err != nil {
			return fmt.Errorf("cluster: pushing trace %.12s… from %s to %s: %w", digest, ss.url, target, err)
		}
		if up.Digest != digest {
			return fmt.Errorf("cluster: trace push digest mismatch: want %s, shard stored %s", digest, up.Digest)
		}
		g.mTracePushes.Inc()
		return nil
	}
	return fmt.Errorf("cluster: trace %.12s… resident on no shard: %w", digest, client.ErrTraceNotFound)
}
