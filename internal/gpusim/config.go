package gpusim

import "fmt"

// TagMode selects the memory-safety mechanism being simulated.
type TagMode int

const (
	// ModeNone: no memory tagging (the performance baseline).
	ModeNone TagMode = iota
	// ModeIMT: Implicit Memory Tagging. Tags ride in the ECC check bits,
	// so the memory system behaves identically to ModeNone — the paper's
	// "no storage or memory traffic overheads" claim is structural, and
	// the simulator treats it as such (ECC encode/decode latency is part
	// of the baseline pipeline either way; see Config.Canonical).
	ModeIMT
	// ModeECCSteal: tags stored in stolen ECC check bits. Also traffic-
	// free; the cost is reliability, not performance (see reliability).
	ModeECCSteal
	// ModeCarveOut: tags in a dedicated memory carve-out, fetched on L2
	// data misses and cached in the L2 (the ARM-MTE/LAK-like baseline).
	ModeCarveOut
	// ModeBoundsTable: a GPUShield-like tagged base-and-bounds check on
	// every memory instruction (no extra memory traffic, small fixed
	// per-access latency in the LD/ST path).
	ModeBoundsTable
)

func (m TagMode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeIMT:
		return "imt"
	case ModeECCSteal:
		return "ecc-steal"
	case ModeCarveOut:
		return "carve-out"
	case ModeBoundsTable:
		return "bounds-table"
	default:
		return fmt.Sprintf("TagMode(%d)", int(m))
	}
}

// ParseTagMode maps a mode name to its TagMode and carve-out geometry.
// It round-trips every TagMode.String() spelling (a bare "carve-out"
// gets the low-tag-storage geometry) and additionally accepts the
// carve-geometry shorthands used on the command line:
//
//	none, imt, ecc-steal, bounds-table (alias: bounds),
//	carve-out, carve-low, carve-high, carve-mte
func ParseTagMode(s string) (TagMode, CarveOut, error) {
	switch s {
	case "none":
		return ModeNone, CarveOut{}, nil
	case "imt":
		return ModeIMT, CarveOut{}, nil
	case "ecc-steal":
		return ModeECCSteal, CarveOut{}, nil
	case "carve-out", "carve-low":
		return ModeCarveOut, CarveOutLow, nil
	case "carve-high":
		return ModeCarveOut, CarveOutHigh, nil
	case "carve-mte":
		return ModeCarveOut, CarveOutARMMTE, nil
	case "bounds-table", "bounds":
		return ModeBoundsTable, CarveOut{}, nil
	default:
		return 0, CarveOut{}, fmt.Errorf("gpusim: unknown tagging mode %q (want one of %v)", s, TagModeNames())
	}
}

// TagModeNames lists the spellings ParseTagMode accepts, for usage text.
func TagModeNames() []string {
	return []string{"none", "imt", "ecc-steal", "carve-out", "carve-low", "carve-high", "carve-mte", "bounds-table", "bounds"}
}

// CarveOut describes the tag-store geometry for ModeCarveOut.
type CarveOut struct {
	// TagBits per granule and the granule size determine how much data
	// one 32B tag sector covers: 32*8/TagBits granules × GranuleBytes.
	TagBits      int
	GranuleBytes int
}

// CoverageBytes returns the span of data covered by one 32B tag sector.
func (c CarveOut) CoverageBytes() uint64 {
	return uint64(32*8/c.TagBits) * uint64(c.GranuleBytes)
}

// StorageOverhead returns the carve-out's share of total memory
// (TagBits per GranuleBytes of data), e.g. 3.125% for (8b, 32B).
func (c CarveOut) StorageOverhead() float64 {
	return float64(c.TagBits) / 8 / float64(c.GranuleBytes)
}

// Standard carve-out geometries from Table 1 / §5.2.
var (
	// CarveOutARMMTE: TS=4b per TG=16B granule (the ARM MTE layout);
	// tag-traffic-wise equivalent to the low-tag-storage configuration.
	CarveOutARMMTE = CarveOut{TagBits: 4, GranuleBytes: 16}
	// CarveOutLow: iso-security-10 (TS=8b, TG=32B) — the paper's
	// "low-tag-storage" curve in Figure 8.
	CarveOutLow = CarveOut{TagBits: 8, GranuleBytes: 32}
	// CarveOutHigh: iso-security-16 (TS=16b, TG=32B) — "high-tag-storage".
	CarveOutHigh = CarveOut{TagBits: 16, GranuleBytes: 32}
)

// Config sizes the simulated GPU. The defaults model a quarter-scale
// GV100-class part: scaling SM count, L2 slices and DRAM channels together
// preserves the per-SM bandwidth balance that drives the Figure 8 shapes.
type Config struct {
	NumSMs     int
	NumSlices  int // L2 slices, one DRAM channel each
	SectorSize int // bytes; the GPU access granularity (32)

	L1SizeBytes int
	L1Assoc     int
	L1MSHRs     int

	L2SliceBytes int
	L2Assoc      int

	L1Latency   int // cycles from L2 hit to L1 fill
	DRAMLatency int // additional cycles for a DRAM access
	// DRAMCyclesPerSector is each channel's occupancy per 32B transfer;
	// it sets the per-channel bandwidth (32B / cycles).
	DRAMCyclesPerSector int

	// MaxOutstandingOps bounds per-SM memory-level parallelism.
	MaxOutstandingOps int

	Mode     TagMode
	Carve    CarveOut
	BoundsCk int // extra issue cycles per memory op in ModeBoundsTable

	// InterleaveSectors: consecutive groups of this many sectors map to
	// the same L2 slice (256B groups by default).
	InterleaveSectors int

	// SampleInterval, when non-zero, records phase telemetry (bandwidth
	// utilization, hit rates, MSHR occupancy, queue depths) into
	// Stats.Samples every SampleInterval cycles, plus one final partial
	// window at run end. 0 disables sampling (no overhead).
	SampleInterval uint64

	// OnSample, when non-nil, is invoked synchronously with each Sample
	// the interval sampler records (it fires only when SampleInterval is
	// non-zero). The hook observes: it receives the sample by value,
	// allocates nothing per invocation on the simulator's side, and must
	// not retain pointers into the simulator. It does not change Stats —
	// the run is bit-identical with and without a hook installed (the
	// sampling-neutrality invariant extends to OnSample). The hook runs
	// on the simulation goroutine, so a slow hook slows the simulation;
	// live-streaming consumers must hand off to their own buffers (see
	// internal/serve/rooms for the never-block contract).
	//
	// json:"-" keeps the func out of the canonical config encoding, so
	// installing a hook does not perturb runner cache keys, manifests or
	// conformance digests.
	OnSample func(Sample) `json:"-"`
}

// Canonical returns c with every field the simulator does not read
// cleared, so two configs whose canonical forms are equal simulate
// identically. It is the one place the tagging-mode equivalences are
// written down:
//
//   - ModeIMT and ModeECCSteal become ModeNone. Both keep tags in the
//     ECC check bits, so neither adds storage, memory traffic or
//     check latency: ECC encode/decode is in the baseline pipeline
//     either way, and what the modes trade away (nothing for IMT,
//     correction strength for ECC-stealing) is a reliability property
//     modelled by package reliability, not a timing one.
//   - Carve is cleared unless Mode is ModeCarveOut: only the carve-out
//     fetches tags from a separate region whose geometry sets the
//     tag-sector span.
//   - BoundsCk is cleared unless Mode is ModeBoundsTable: only the
//     bounds-table check adds per-access issue cycles.
//
// gpusim.New simulates the canonical form and the runner's cache key
// hashes it, so a future mode-specific timing effect must change
// Canonical first, and the key follows it.
func (c Config) Canonical() Config {
	switch c.Mode {
	case ModeIMT, ModeECCSteal:
		c.Mode = ModeNone
	}
	if c.Mode != ModeCarveOut {
		c.Carve = CarveOut{}
	}
	if c.Mode != ModeBoundsTable {
		c.BoundsCk = 0
	}
	return c
}

// DefaultConfig returns the quarter-GV100 model used by the experiments.
func DefaultConfig() Config {
	return Config{
		NumSMs:              4,
		NumSlices:           4,
		SectorSize:          32,
		L1SizeBytes:         64 << 10,
		L1Assoc:             4,
		L1MSHRs:             48,
		L2SliceBytes:        768 << 10,
		L2Assoc:             16,
		L1Latency:           30,
		DRAMLatency:         200,
		DRAMCyclesPerSector: 4,
		MaxOutstandingOps:   16,
		Mode:                ModeNone,
		BoundsCk:            1,
		InterleaveSectors:   8,
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.NumSMs < 1 || c.NumSlices < 1 {
		return fmt.Errorf("gpusim: need ≥1 SM and ≥1 slice")
	}
	if c.SectorSize != 32 {
		return fmt.Errorf("gpusim: sector size must be 32 bytes (got %d)", c.SectorSize)
	}
	if c.L1SizeBytes%(c.SectorSize*c.L1Assoc) != 0 || c.L2SliceBytes%(c.SectorSize*c.L2Assoc) != 0 {
		return fmt.Errorf("gpusim: cache sizes must divide into assoc×sector sets")
	}
	if c.Mode == ModeCarveOut && c.Carve.TagBits == 0 {
		return fmt.Errorf("gpusim: carve-out mode requires a carve-out geometry")
	}
	if c.InterleaveSectors < 1 || c.MaxOutstandingOps < 1 || c.L1MSHRs < 1 {
		return fmt.Errorf("gpusim: interleave, outstanding ops and MSHRs must be ≥ 1")
	}
	if c.DRAMCyclesPerSector < 1 || c.DRAMLatency < 1 || c.L1Latency < 1 {
		return fmt.Errorf("gpusim: latencies must be ≥ 1")
	}
	return nil
}
