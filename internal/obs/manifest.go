package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Cell is one unit of work (a sweep cell) logged into a run manifest.
type Cell struct {
	Name   string  `json:"name"`
	Cached bool    `json:"cached,omitempty"`
	Failed bool    `json:"failed,omitempty"`
	Millis float64 `json:"ms"`
	// NsPerOp and AllocsPerOp are the simulator's host-side cost per
	// simulated warp op for the cell (gpusim.Stats host telemetry).
	// Both are 0 — and omitted — for cached or failed cells, which
	// never ran a simulation.
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// PhaseTiming is one named phase of a run (e.g. one experiment id).
type PhaseTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// Manifest pins a results directory to the code and configuration that
// produced it: a hash of the full experiment configuration, the Go
// toolchain and VCS identity of the binary, wall time, the engine's
// activity counters, and the per-cell duration log. It is written as
// manifest.json alongside every experiment output so a result can
// always be traced back to how it was made.
type Manifest struct {
	Name        string    `json:"name"`
	CreatedAt   time.Time `json:"created_at"`
	GoVersion   string    `json:"go_version"`
	VCSRevision string    `json:"vcs_revision,omitempty"`
	VCSTime     string    `json:"vcs_time,omitempty"`
	VCSModified bool      `json:"vcs_modified,omitempty"`
	ConfigHash  string    `json:"config_hash"`

	WallSeconds float64           `json:"wall_seconds"`
	Counters    map[string]uint64 `json:"counters,omitempty"`
	Metrics     *Snapshot         `json:"metrics,omitempty"`
	Phases      []PhaseTiming     `json:"phases,omitempty"`
	Cells       []Cell            `json:"cells,omitempty"`
}

// NewManifest builds a manifest for the named run: CreatedAt, the Go
// version, the VCS revision embedded by the toolchain (empty for plain
// `go test` builds without VCS stamping), and the hash of config.
func NewManifest(name string, config any) Manifest {
	m := Manifest{
		Name:       name,
		CreatedAt:  time.Now().UTC(),
		GoVersion:  runtime.Version(),
		ConfigHash: HashJSON(config),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// HashJSON returns the hex SHA-256 of v's canonical JSON encoding
// (encoding/json emits struct fields in declaration order, so the hash
// is deterministic for struct configs). Unencodable values — which
// would be a programming error in a config struct — hash to
// "unencodable".
func HashJSON(v any) string {
	blob, err := json.Marshal(v)
	if err != nil {
		return "unencodable"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// WriteFile writes the manifest as indented JSON to path.
func (m Manifest) WriteFile(path string) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	blob, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(blob, &m)
	return m, err
}

// Hub bundles the observability sinks one run threads through its
// engines: a metrics registry, an optional trace recorder, and the
// accumulated per-cell log for the run manifest. The cell log is kept
// only beside a trace recorder: a long-lived server's hub holds a
// registry alone, so its memory does not grow with every cell. A nil
// *Hub is a valid no-op sink everywhere it is accepted.
type Hub struct {
	Metrics *Registry
	Trace   *TraceRecorder

	mu    sync.Mutex
	cells []Cell
}

// NewHub returns a hub with a fresh registry and trace recorder.
func NewHub() *Hub {
	return &Hub{Metrics: NewRegistry(), Trace: NewTraceRecorder()}
}

// AddCell appends one completed cell to the run log; a hub without a
// trace recorder keeps no log.
func (h *Hub) AddCell(c Cell) {
	if h == nil || h.Trace == nil {
		return
	}
	h.mu.Lock()
	h.cells = append(h.cells, c)
	h.mu.Unlock()
}

// Cells returns a copy of the accumulated cell log.
func (h *Hub) Cells() []Cell {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Cell(nil), h.cells...)
}
