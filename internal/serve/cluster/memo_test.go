package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/apitypes"
)

// shardSims is the number of /v1/sim requests that reached the fleet.
func shardSims(chaoses []*chaosShard) int64 {
	var n int64
	for _, ch := range chaoses {
		n += ch.sims.Load()
	}
	return n
}

// simOK posts body to /v1/sim and decodes the 200 answer.
func simOK(t *testing.T, h http.Handler, body string) apitypes.CellResult {
	t.Helper()
	rec := gwPost(t, h, "/v1/sim", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("sim %s = %d: %s", body, rec.Code, rec.Body.String())
	}
	var res apitypes.CellResult
	mustDecode(t, rec, &res)
	if res.Stats == nil {
		t.Fatalf("sim %s came back without stats", body)
	}
	return res
}

func statsJSON(t *testing.T, res apitypes.CellResult) []byte {
	t.Helper()
	blob, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestGatewayMemoAnswersRepeatedSim: identical /v1/sim requests reach a
// shard once; the rest are memo hits carrying the stats bytes imtd
// itself answers for the cell.
func TestGatewayMemoAnswersRepeatedSim(t *testing.T) {
	const body = `{"workload":"hpc-micro0","mode":"imt"}`
	single, err := serve.New(serve.Options{Workers: 1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := statsJSON(t, simOK(t, single.Handler(), body))

	gw, chaoses, _ := newFleet(t, 2)
	h := gw.Handler()
	first := simOK(t, h, body)
	for i := 0; i < 4; i++ {
		res := simOK(t, h, body)
		if !res.Cached || res.Coalesced || res.Rerouted {
			t.Errorf("repeat %d: cached=%v coalesced=%v rerouted=%v, want a plain cached answer", i, res.Cached, res.Coalesced, res.Rerouted)
		}
		if res.Shard != first.Shard || res.CacheKey != first.CacheKey {
			t.Errorf("repeat %d: shard %q key %q, first answer shard %q key %q", i, res.Shard, res.CacheKey, first.Shard, first.CacheKey)
		}
		if res.Workload != "hpc-micro0" || res.Mode != "imt" {
			t.Errorf("repeat %d: cell %s/%s", i, res.Workload, res.Mode)
		}
		if got := statsJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("repeat %d stats differ from imtd's:\n  imtgw: %s\n  imtd:  %s", i, got, want)
		}
	}
	if got := statsJSON(t, first); !bytes.Equal(got, want) {
		t.Errorf("first answer's stats differ from imtd's:\n  imtgw: %s\n  imtd:  %s", got, want)
	}
	if n := shardSims(chaoses); n != 1 {
		t.Errorf("five identical sims reached the shards %d times, want 1", n)
	}

	var snap apitypes.GatewaySnapshot
	mustDecode(t, gwGet(t, h, "/v1/statsz"), &snap)
	if snap.Gateway == nil || snap.Gateway.MemoHits != 4 || snap.Gateway.MemoEntries != 1 {
		t.Errorf("statsz gateway section = %+v, want memo_hits 4 and memo_entries 1", snap.Gateway)
	}
}

// TestGatewayMemoSharedKeyKeepsMode: none, imt and ecc-steal share one
// cache key, so after none the other two are memo hits, each answered
// in its own requested mode.
func TestGatewayMemoSharedKeyKeepsMode(t *testing.T) {
	gw, chaoses, _ := newFleet(t, 2)
	h := gw.Handler()
	none := simOK(t, h, `{"workload":"hpc-micro0","mode":"none"}`)
	for _, mode := range []string{"imt", "ecc-steal"} {
		res := simOK(t, h, fmt.Sprintf(`{"workload":"hpc-micro0","mode":%q}`, mode))
		if res.Mode != mode || res.Workload != "hpc-micro0" || !res.Cached {
			t.Errorf("%s: answered as %s/%s cached=%v", mode, res.Workload, res.Mode, res.Cached)
		}
		if !bytes.Equal(statsJSON(t, res), statsJSON(t, none)) {
			t.Errorf("%s stats differ from none's", mode)
		}
	}
	if n := shardSims(chaoses); n != 1 {
		t.Errorf("none, imt and ecc-steal reached the shards %d times, want 1", n)
	}
}

// TestGatewayMemoSkipsTraceCells: a trace:<digest> cell reaches a shard
// on every request, so once its trace is deleted the next sim answers
// 404 trace_not_found through imtgw exactly as on imtd.
func TestGatewayMemoSkipsTraceCells(t *testing.T) {
	single, err := serve.New(serve.Options{Workers: 1, CacheDir: t.TempDir(), TraceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	gw, chaoses, _ := newFleet(t, 2)
	blob, digest := gwTraceBlob(t, 6)
	body := fmt.Sprintf(`{"workload":"trace:%s","mode":"imt"}`, digest)
	for _, tg := range []struct {
		name string
		h    http.Handler
	}{{"imtd", single.Handler()}, {"imtgw", gw.Handler()}} {
		rec := httptest.NewRecorder()
		tg.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(blob)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("%s upload: %d %s", tg.name, rec.Code, rec.Body)
		}
		for i := 0; i < 3; i++ {
			before := shardSims(chaoses)
			simOK(t, tg.h, body)
			if tg.name == "imtgw" && shardSims(chaoses) == before {
				t.Errorf("trace sim %d was answered without reaching a shard", i)
			}
		}
		rec = httptest.NewRecorder()
		tg.h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/traces/"+digest, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s delete: %d %s", tg.name, rec.Code, rec.Body)
		}
		rec = gwPost(t, tg.h, "/v1/sim", body)
		var env apitypes.ErrorResponse
		mustDecode(t, rec, &env)
		if rec.Code != http.StatusNotFound || env.Error.Code != apitypes.CodeTraceNotFound {
			t.Errorf("%s sim after delete = %d %q, want 404 trace_not_found", tg.name, rec.Code, env.Error.Code)
		}
	}
	if n := gw.memo.entries(); n != 0 {
		t.Errorf("memo holds %d entries after trace sims, want 0", n)
	}
}

// TestGatewayMemoSkipsSampledCells: a sampled cell's answer carries a
// Samples series, so every request reaches a shard.
func TestGatewayMemoSkipsSampledCells(t *testing.T) {
	gw, chaoses, _ := newFleet(t, 2)
	const body = `{"workload":"hpc-micro0","mode":"imt","sample_interval":20000}`
	for i := 0; i < 3; i++ {
		simOK(t, gw.Handler(), body)
	}
	if n := shardSims(chaoses); n != 3 {
		t.Errorf("three sampled sims reached the shards %d times, want 3", n)
	}
	if n := gw.memo.entries(); n != 0 {
		t.Errorf("memo holds %d entries after sampled sims, want 0", n)
	}
}

// TestMemoBound: the memo never holds more than two generations, the
// oldest entries go first, and a hit in the old generation keeps its
// entry through one more rotation.
func TestMemoBound(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	var m memo
	for i := 0; i < 3*memoGeneration; i++ {
		m.put(key(i), memoEntry{shard: key(i)})
		if n := m.entries(); n > 2*memoGeneration {
			t.Fatalf("after %d puts the memo holds %d entries, bound %d", i+1, n, 2*memoGeneration)
		}
	}
	if _, ok := m.get(key(0)); ok {
		t.Error("the first key survived two rotations")
	}
	if e, ok := m.get(key(3*memoGeneration - 1)); !ok || e.shard != key(3*memoGeneration-1) {
		t.Errorf("the last key: %+v, %v", e, ok)
	}

	m = memo{}
	for i := 0; i <= memoGeneration; i++ {
		m.put(key(i), memoEntry{shard: key(i)}) // the last put rotates
	}
	if _, ok := m.get(key(0)); !ok {
		t.Fatal("key 0 is gone after one rotation")
	}
	// Fill the current generation and rotate once more: key 0 was
	// promoted by its hit, key 1 was not.
	for i := memoGeneration + 1; i <= 2*memoGeneration; i++ {
		m.put(key(i), memoEntry{shard: key(i)})
	}
	if e, ok := m.get(key(0)); !ok || e.shard != key(0) {
		t.Error("a key hit in the old generation did not survive the next rotation")
	}
	if _, ok := m.get(key(1)); ok {
		t.Error("a key never hit survived two rotations")
	}
}

// TestMemoConcurrent: gets and puts from many goroutines keep the bound
// and never return another key's entry (run it under -race).
func TestMemoConcurrent(t *testing.T) {
	var m memo
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < memoGeneration; i++ {
				k := fmt.Sprintf("key-%05d", (w*memoGeneration/2+i)%(3*memoGeneration))
				if e, ok := m.get(k); ok && e.shard != k {
					t.Errorf("get(%s) returned %s's entry", k, e.shard)
					return
				}
				m.put(k, memoEntry{shard: k})
			}
		}(w)
	}
	wg.Wait()
	if n := m.entries(); n > 2*memoGeneration {
		t.Errorf("memo holds %d entries, bound %d", n, 2*memoGeneration)
	}
}
