package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/serve/apitypes"
	"repro/internal/tracestore"
)

// TraceStore is the trace resource an executor serves /v1/traces*
// over: imtd's own tracestore.Store, or the fleet's shards on imtgw.
// Errors go through Frontend.WriteFailure.
type TraceStore interface {
	// Put stores a raw IMTTRC body; Created is false on a
	// content-address hit.
	Put(ctx context.Context, body io.Reader) (apitypes.TraceUploadResponse, error)
	List(ctx context.Context) apitypes.TraceListResponse
	Stat(ctx context.Context, digest string) (apitypes.TraceInfo, error)
	// Open returns the trace's info and raw bytes; the caller closes
	// the reader.
	Open(ctx context.Context, digest string) (apitypes.TraceInfo, io.ReadCloser, error)
	Delete(ctx context.Context, digest string) (apitypes.TraceInfo, error)
}

// errTracesDisabled is imtd's answer without -trace-dir, on the trace
// routes and for trace:<digest> cells: trace_not_found, so clients see
// one code for "this shard cannot serve this trace" whether the store
// is absent or the blob is.
var errTracesDisabled = fmt.Errorf("%w: trace store disabled (start the daemon with -trace-dir)", tracestore.ErrNotFound)

// handleTraces serves the four trace routes over the executor's
// TraceStore. Each is counted and timed under route="traces", and a
// {digest} must be well formed before the executor is asked anything.
//
//	POST   /v1/traces      upload → 201 fresh commit, 200 content-address hit
//	GET    /v1/traces      listing, sorted by digest
//	GET    /v1/traces/{d}  TraceInfo, or with ?raw=1 the raw bytes
//	DELETE /v1/traces/{d}  the deleted trace's info (409 while in use)
//
// An upload is streamed into the store, so a multi-GB trace never
// resides in memory (the one route exempt from MaxRequestBytes: the
// store quota bounds it). A raw read sends its 200 and Content-Length
// only once the blob is open, so a blob that vanished is a 404.
func (f *Frontend) handleTraces(w http.ResponseWriter, r *http.Request) {
	t0 := f.CountRequest()
	defer f.ObserveLatency(t0, "traces")
	// The mux never matches an empty segment: "" means a route
	// without {digest}.
	digest := r.PathValue("digest")
	if digest != "" && !tracestore.ValidDigest(digest) {
		f.WriteError(w, http.StatusBadRequest, apitypes.CodeBadRequest,
			fmt.Errorf("serve: malformed trace digest %q (want 64 lowercase hex sha-256)", digest))
		return
	}
	store := f.exec.Traces()
	if store == nil {
		f.WriteFailure(w, errTracesDisabled)
		return
	}
	ctx, status := r.Context(), http.StatusOK
	var body any
	var err error
	switch {
	case r.Method == http.MethodPost:
		if f.RejectDraining(w) {
			return
		}
		var up apitypes.TraceUploadResponse
		up, err = store.Put(ctx, r.Body)
		if up.Created {
			status = http.StatusCreated
		}
		body = up
	case digest == "":
		body = store.List(ctx)
	case r.Method == http.MethodDelete:
		body, err = store.Delete(ctx, digest)
	case r.URL.Query().Get("raw") == "":
		body, err = store.Stat(ctx, digest)
	default:
		var info apitypes.TraceInfo
		var blob io.ReadCloser
		if info, blob, err = store.Open(ctx, digest); err == nil {
			defer blob.Close()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.FormatInt(info.Bytes, 10))
			w.WriteHeader(http.StatusOK)
			_, _ = io.Copy(w, blob)
			return
		}
	}
	if err != nil {
		f.WriteFailure(w, err)
		return
	}
	WriteJSON(w, status, body)
}

// localTraces is imtd's TraceStore.
type localTraces struct{ st *tracestore.Store }

func (t localTraces) Put(_ context.Context, body io.Reader) (apitypes.TraceUploadResponse, error) {
	info, created, err := t.st.Put(body)
	return apitypes.TraceUploadResponse{TraceInfo: traceInfoAPI(info), Created: created}, err
}

func (t localTraces) List(context.Context) apitypes.TraceListResponse {
	resp := apitypes.TraceListResponse{Traces: []apitypes.TraceInfo{}, QuotaBytes: t.st.Stats().QuotaBytes}
	for _, info := range t.st.List() {
		resp.Traces = append(resp.Traces, traceInfoAPI(info))
		resp.TotalBytes += info.Bytes
	}
	return resp
}

func (t localTraces) Stat(_ context.Context, digest string) (apitypes.TraceInfo, error) {
	info, err := t.st.Stat(digest)
	return traceInfoAPI(info), err
}

// Open pins the blob until the reader is closed.
func (t localTraces) Open(_ context.Context, digest string) (apitypes.TraceInfo, io.ReadCloser, error) {
	rep, err := t.st.OpenReplay(digest)
	if err != nil {
		return apitypes.TraceInfo{}, nil, err
	}
	return traceInfoAPI(rep.Info()), struct {
		io.Reader
		io.Closer
	}{rep.Blob(), rep}, nil
}

func (t localTraces) Delete(_ context.Context, digest string) (apitypes.TraceInfo, error) {
	info, err := t.st.Delete(digest)
	return traceInfoAPI(info), err
}

// traceInfoAPI converts a store Info into its wire shape.
func traceInfoAPI(info tracestore.Info) apitypes.TraceInfo {
	return apitypes.TraceInfo{
		Digest:         info.Digest,
		Bytes:          info.Bytes,
		NumSMs:         info.NumSMs,
		TotalOps:       info.TotalOps,
		CreatedUnixMs:  info.Created.UnixMilli(),
		LastUsedUnixMs: info.LastUsed.UnixMilli(),
	}
}
