package dram

import "ntcsim/internal/cache"

// PowerParams holds the Micron-style current parameters of one DRAM chip
// from which the Table I energies are derived. Currents are averages over
// the respective operation windows, in amps; the background current already
// folds in the power-down-mode residency the Micron system-power calculator
// assumes.
type PowerParams struct {
	Name string
	VDD  float64 // supply voltage, V

	// IBackground is the average standby current of one chip (precharge/
	// active standby mix with power-down residency folded in), A.
	IBackground float64
	// IReadDelta / IWriteDelta are the incremental currents of one chip
	// while streaming reads/writes at full bandwidth, above background, A.
	// They amortize activate/precharge current over the column accesses of
	// an open-page streaming pattern.
	IReadDelta  float64
	IWriteDelta float64
}

// DDR4Power returns the per-chip current parameters of the paper's
// 8x 4Gbit DDR4 rank, calibrated so the derived energies reproduce Table I:
// E_IDLE = 0.0728 nJ/cycle *per chip* (116mW of standby power per device at
// the 1.6GHz clock — an IDD2N/IDD3N-class figure), E_READ = 0.2566 nJ and
// E_WRITE = 0.2495 nJ per byte transferred by the rank.
func DDR4Power() PowerParams {
	return PowerParams{
		Name:        "Micron 4Gb x8 DDR4",
		VDD:         1.2,
		IBackground: 97.07e-3,
		IReadDelta:  684.3e-3,
		IWriteDelta: 665.3e-3,
	}
}

// LPDDR4Power returns mobile-DRAM current parameters: per-chip background
// current roughly 7x below DDR4 (the property the paper's discussion
// section wants to exploit), with comparable active energy per byte.
func LPDDR4Power() PowerParams {
	return PowerParams{
		Name:        "LPDDR4 x16 (2x 4Gb dies)",
		VDD:         1.1,
		IBackground: 15e-3,
		IReadDelta:  700e-3,
		IWriteDelta: 680e-3,
	}
}

// RankEnergy is the paper's Table I: the energy figures of an "8x 4Gbit
// DDR4 chip" — idle energy per clock cycle per chip, and incremental
// read/write energy per byte transferred by the 8-chip rank.
type RankEnergy struct {
	IdlePerCycleNJ  float64 // nJ per memory-clock cycle, per chip
	ReadPerByteNJ   float64 // incremental nJ per byte read (rank)
	WritePerByteNJ  float64 // incremental nJ per byte written (rank)
	ChipsPerRank    int
	ClockHz         float64
	PeakBytesPerSec float64
}

// Energies derives the Table I figures for a rank of chipsPerRank chips
// with timing t.
func (p PowerParams) Energies(t Timing, chipsPerRank int) RankEnergy {
	clockHz := 1e9 / t.TCKNs
	peakBW := clockHz * 2 * 8 // 64-bit rank bus, double data rate, bytes/s
	n := float64(chipsPerRank)
	return RankEnergy{
		IdlePerCycleNJ:  p.IBackground * p.VDD / clockHz * 1e9,
		ReadPerByteNJ:   p.IReadDelta * p.VDD * n / peakBW * 1e9,
		WritePerByteNJ:  p.IWriteDelta * p.VDD * n / peakBW * 1e9,
		ChipsPerRank:    chipsPerRank,
		ClockHz:         clockHz,
		PeakBytesPerSec: peakBW,
	}
}

// BackgroundPower returns the standing power in watts of `ranks` ranks
// (every chip of every rank burns the per-chip idle energy each cycle).
func (e RankEnergy) BackgroundPower(ranks int) float64 {
	return e.IdlePerCycleNJ * 1e-9 * e.ClockHz * float64(ranks) * float64(e.ChipsPerRank)
}

// Power returns total memory-system power in watts given the rank count
// and the consumed read/write bandwidth in bytes/s — the scaling rule the
// paper states under Table I ("we scale these numbers to match the number
// of ranks in the system and the application's memory bandwidth
// consumption").
func (e RankEnergy) Power(ranks int, readBW, writeBW float64) float64 {
	return e.BackgroundPower(ranks) +
		readBW*e.ReadPerByteNJ*1e-9 +
		writeBW*e.WritePerByteNJ*1e-9
}

// EventEnergy holds per-command energies for event-level accounting — the
// finer-grained alternative to the paper's bandwidth-scaling rule, used to
// cross-validate it. The energies are derived from the Table I per-byte
// figures by unbundling the activation energy they amortize at a reference
// row-hit rate.
type EventEnergy struct {
	ActNJ      float64 // one row activation + precharge, whole rank
	ReadColNJ  float64 // one 64B read burst (column access + I/O)
	WriteColNJ float64 // one 64B write burst
	Rank       RankEnergy
}

// Events derives event energies consistent with Table I under the given
// reference row-hit rate (the hit rate of the streaming patterns the
// per-byte figures represent; ~0.95 for open-page streaming).
func (e RankEnergy) Events(refRowHit float64) EventEnergy {
	// Table I per line: E_line = E_col + (1-h_ref)*E_act.
	const actNJ = 20.0 // DDR4 8-chip rank activation+precharge energy
	missFrac := 1 - refRowHit
	return EventEnergy{
		ActNJ:      actNJ,
		ReadColNJ:  e.ReadPerByteNJ*cache.LineBytes - missFrac*actNJ,
		WriteColNJ: e.WritePerByteNJ*cache.LineBytes - missFrac*actNJ,
		Rank:       e,
	}
}

// ActiveEnergyJ returns the event-accounted active energy (no background)
// of the accumulated statistics.
func (ev EventEnergy) ActiveEnergyJ(s Stats) float64 {
	return 1e-9 * (float64(s.Activations)*ev.ActNJ +
		float64(s.Reads)*ev.ReadColNJ +
		float64(s.Writes)*ev.WriteColNJ)
}

// EventPower returns total memory power over a window of durationNs using
// event-level accounting: per-command energies from the counted commands
// plus the rank background power.
func (ev EventEnergy) EventPower(s Stats, ranks int, durationNs float64) float64 {
	if durationNs <= 0 {
		return 0
	}
	return ev.Rank.BackgroundPower(ranks) + ev.ActiveEnergyJ(s)/(durationNs*1e-9)
}
