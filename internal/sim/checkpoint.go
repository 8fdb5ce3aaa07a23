package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"slices"

	"ntcsim/internal/cache"
	"ntcsim/internal/cpu"
	"ntcsim/internal/dram"
	"ntcsim/internal/uncore"
	"ntcsim/internal/workload"
)

// Checkpoint is the complete serializable state of a warmed cluster — the
// paper's methodology launches measurements "from checkpoints with warmed
// caches and branch predictors" (Sec. IV), and warming dominates simulation
// cost, so a saved checkpoint amortizes it across experiments.
//
// A checkpoint records the construction parameters (configuration, workload
// names, frequency) plus every component's dynamic state; RestoreCluster
// rebuilds the cluster deterministically and loads the state.
type Checkpoint struct {
	Config   Config
	Profiles []string // workload names, one per core
	FreqHz   float64

	Cores   []cpu.CoreState
	Banks   [][][]cache.LineState
	BankSts []cache.Stats
	Xbar    uncore.CrossbarState
	Memory  dram.SystemState
	ClampNs float64

	LLCReads  uint64
	LLCWrites uint64

	// plans holds each core's workload-generator plan, so RestoreCluster
	// runs the very profiles the checkpoint was taken with and reuses
	// their bias tables instead of drawing them again at every sweep
	// point. gob skips unexported fields: LoadSealed builds the plans
	// afresh for the profile its caller names.
	plans []workload.Plan
}

// Checkpoint captures the cluster's full state.
func (cl *Cluster) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Config:    cl.cfg,
		FreqHz:    cl.freqHz,
		Xbar:      cl.xbar.State(),
		Memory:    cl.mem.sys.State(),
		ClampNs:   cl.mem.clampNs,
		LLCReads:  cl.llcReads,
		LLCWrites: cl.llcWrites,
	}
	for i := range cl.plans {
		ck.Profiles = append(ck.Profiles, cl.plans[i].Profile().Name)
	}
	ck.plans = cl.plans
	for _, c := range cl.cores {
		ck.Cores = append(ck.Cores, c.State())
	}
	for _, b := range cl.banks {
		ck.Banks = append(ck.Banks, b.Snapshot())
		ck.BankSts = append(ck.BankSts, b.Stats())
	}
	return ck
}

// RestoreCluster rebuilds a cluster from a checkpoint, onto the plans it
// carries.
func RestoreCluster(ck *Checkpoint) (*Cluster, error) {
	sameName := func(pl workload.Plan, name string) bool { return pl.Profile().Name == name }
	if !slices.EqualFunc(ck.plans, ck.Profiles, sameName) {
		return nil, fmt.Errorf("sim: checkpoint workload names do not match its plans")
	}
	mem, err := NewSharedMemory(ck.Config.DRAM)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl, err := newCluster(ck.Config, ck.plans, ck.FreqHz, mem)
	if err != nil {
		return nil, err
	}
	if len(ck.Cores) != len(cl.cores) || len(ck.Banks) != len(cl.banks) {
		return nil, fmt.Errorf("sim: checkpoint shape mismatch")
	}
	for i, st := range ck.Cores {
		if err := cl.cores[i].Restore(st); err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", i, err)
		}
	}
	for i, snap := range ck.Banks {
		if err := cl.banks[i].RestoreSnapshot(snap); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		cl.banks[i].SetStats(ck.BankSts[i])
	}
	if err := cl.xbar.Restore(ck.Xbar); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := cl.mem.sys.Restore(ck.Memory); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cl.mem.clampNs = ck.ClampNs
	cl.llcReads = ck.LLCReads
	cl.llcWrites = ck.LLCWrites
	return cl, nil
}

// Sealed on-disk checkpoint format. A raw gob stream cannot distinguish
// "file for a different configuration" from "file with flipped bits" from
// "file cut short by a crash" — all three decode to either an error or,
// worse, a plausible-looking cluster. The sealed format wraps the gob
// payload in a fixed header so the loader can tell the cases apart and
// the sweep pipeline can react correctly (silent re-warm for staleness,
// quarantine for corruption):
//
//	offset size  field
//	0      4     magic "NTCK"
//	4      2     format version (little-endian uint16)
//	6      8     config fingerprint (caller-defined, see core)
//	14     8     payload length in bytes
//	22     8     CRC64/ECMA of the payload
//	30     -     gob(Checkpoint)
//
// The fingerprint hashes everything the checkpoint's contents depend on;
// the CRC makes torn writes and bit rot detectable with certainty far
// beyond what gob's own framing provides.
var (
	// ErrCheckpointCorrupt marks a sealed checkpoint whose bytes cannot
	// be trusted: bad magic, unknown version, truncated payload, CRC
	// mismatch, or an undecodable payload that passed the CRC.
	ErrCheckpointCorrupt = errors.New("sim: corrupt checkpoint")
	// ErrCheckpointStale marks an intact sealed checkpoint whose config
	// fingerprint does not match the caller's — written by a different
	// configuration (edited profile, changed warmup, different seed).
	ErrCheckpointStale = errors.New("sim: stale checkpoint fingerprint")
)

const (
	sealedMagic   = "NTCK"
	sealedVersion = 1
	sealedHdrLen  = 4 + 2 + 8 + 8 + 8
)

var sealedCRCTable = crc64.MakeTable(crc64.ECMA)

// SaveSealed writes the checkpoint in the sealed format, stamping the
// given config fingerprint into the header.
func (ck *Checkpoint) SaveSealed(w io.Writer, fingerprint uint64) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return fmt.Errorf("sim: encoding checkpoint: %w", err)
	}
	hdr := make([]byte, sealedHdrLen)
	copy(hdr[0:4], sealedMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], sealedVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], fingerprint)
	binary.LittleEndian.PutUint64(hdr[14:22], uint64(payload.Len()))
	binary.LittleEndian.PutUint64(hdr[22:30], crc64.Checksum(payload.Bytes(), sealedCRCTable))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("sim: writing checkpoint header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("sim: writing checkpoint payload: %w", err)
	}
	return nil
}

// LoadSealed reads a sealed checkpoint and verifies it in two steps:
// integrity first (magic, version, length, CRC — failure wraps
// ErrCheckpointCorrupt), then freshness (header fingerprint must equal
// fingerprint — mismatch wraps ErrCheckpointStale, reported only for
// files whose bytes are provably intact). The checkpoint restores onto p
// on every core: the caller's fingerprint vouches that it was taken with
// p, even when p is renamed or edited.
func LoadSealed(r io.Reader, fingerprint uint64, p *workload.Profile) (*Checkpoint, error) {
	hdr := make([]byte, sealedHdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrCheckpointCorrupt, err)
	}
	if string(hdr[0:4]) != sealedMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != sealedVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCheckpointCorrupt, v, sealedVersion)
	}
	gotFP := binary.LittleEndian.Uint64(hdr[6:14])
	length := binary.LittleEndian.Uint64(hdr[14:22])
	wantCRC := binary.LittleEndian.Uint64(hdr[22:30])
	const maxPayload = 1 << 32 // refuse absurd lengths before allocating
	if length == 0 || length > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCheckpointCorrupt, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrCheckpointCorrupt, err)
	}
	if crc := crc64.Checksum(payload, sealedCRCTable); crc != wantCRC {
		return nil, fmt.Errorf("%w: CRC64 mismatch (file %016x, computed %016x)",
			ErrCheckpointCorrupt, wantCRC, crc)
	}
	if gotFP != fingerprint {
		return nil, fmt.Errorf("%w: file %016x, want %016x", ErrCheckpointStale, gotFP, fingerprint)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: decoding payload: %v", ErrCheckpointCorrupt, err)
	}
	profiles := make([]*workload.Profile, len(ck.Profiles))
	for i := range profiles {
		profiles[i] = p
	}
	var err error
	if ck.plans, err = newPlans(ck.Config, profiles, 0); err != nil {
		return nil, err
	}
	return &ck, nil
}
