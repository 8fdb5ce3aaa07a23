package dram

import (
	"fmt"
	"math"
	"slices"

	"ntcsim/internal/cache"
)

// Config describes the memory system organization.
type Config struct {
	Channels     int
	RanksPerChan int
	ChipsPerRank int
	BanksPerRank int
	BankGroups   int // bank groups per rank (DDR4: 4; LPDDR4: 1)
	RowBytes     int // row-buffer size per rank; one request moves one cache.LineBytes line
	ChipGbit     int // capacity per chip, for the capacity report
	Timing       Timing
	Power        PowerParams
}

// DefaultConfig returns the paper's memory system: 4 channels x 4 ranks x
// 8x 4Gbit chips (64GB), DDR4 at a 1600MHz clock, open-page policy.
func DefaultConfig() Config {
	return Config{
		Channels:     4,
		RanksPerChan: 4,
		ChipsPerRank: 8,
		BanksPerRank: 16,
		BankGroups:   4,
		RowBytes:     8192,
		ChipGbit:     4,
		Timing:       DDR4(),
		Power:        DDR4Power(),
	}
}

// Ranks returns the total rank count.
func (c Config) Ranks() int { return c.Channels * c.RanksPerChan }

// Energies returns the Table I per-rank energies of c's power parameters
// at its timing and chip count. With Ranks it gives the paper's scaling
// rule: Energies().Power(Ranks(), readBW, writeBW).
func (c Config) Energies() RankEnergy { return c.Power.Energies(c.Timing, c.ChipsPerRank) }

// TotalBytes returns the memory capacity.
func (c Config) TotalBytes() uint64 {
	bitsPerChip := uint64(c.ChipGbit) << 30
	return uint64(c.Channels) * uint64(c.RanksPerChan) * uint64(c.ChipsPerRank) * bitsPerChip / 8
}

// Stats aggregates access statistics since the last ResetStats.
type Stats struct {
	Reads, Writes           uint64
	RowHits, RowConflicts   uint64
	RowClosed               uint64 // accesses finding the bank precharged
	BytesRead, BytesWritten uint64
	Activations             uint64
	RefreshStallsNs         float64
}

// Add sums o into s, field by field.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowConflicts += o.RowConflicts
	s.RowClosed += o.RowClosed
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Activations += o.Activations
	s.RefreshStallsNs += o.RefreshStallsNs
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowConflicts + s.RowClosed
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

type bank struct {
	openRow    int64   // -1 when precharged
	lastActNs  float64 // time of the activation that opened the current row
	actReadyNs float64 // earliest next ACT
	casReadyNs float64 // earliest next CAS to the open row
	preReadyNs float64 // earliest next PRE
}

type channel struct {
	banks []bank // ranksPerChan * banksPerRank

	// Per-rank activation history for tRRD / tFAW.
	lastActNs []float64   // per rank
	actWindow [][]float64 // per rank, last 4 ACT times (ring)
	actIdx    []int

	busFreeNs      float64
	lastWasWrite   bool
	writeDataEndNs float64 // end of the most recent write burst (for tWTR)

	// Bank-group timing state (tCCD_S/L, tRRD_S/L).
	lastCASNs    float64
	lastCASGroup int
	lastActGroup []int // per rank
}

// System is the memory-system timing simulator. It is not safe for
// concurrent use; the cluster simulator drives it from a single goroutine
// with non-decreasing timestamps.
type System struct {
	cfg   Config
	chans []*channel
	stats Stats

	colsPerRow uint64
	lastNowNs  float64

	// Observability (see observe.go): nil until EnableObs, cumulative
	// afterwards, never cloned or reset with Stats.
	bankObs [][]BankCommandCounts
}

// New validates cfg and builds the system.
func New(cfg Config) (*System, error) {
	switch {
	case cfg.Channels <= 0 || cfg.Channels&(cfg.Channels-1) != 0:
		return nil, fmt.Errorf("dram: channels must be a positive power of two, got %d", cfg.Channels)
	case cfg.RanksPerChan <= 0:
		return nil, fmt.Errorf("dram: ranks per channel must be positive, got %d", cfg.RanksPerChan)
	case cfg.BanksPerRank <= 0 || cfg.BanksPerRank&(cfg.BanksPerRank-1) != 0:
		return nil, fmt.Errorf("dram: banks per rank must be a positive power of two, got %d", cfg.BanksPerRank)
	case cfg.BankGroups <= 0 || cfg.BankGroups > cfg.BanksPerRank || cfg.BanksPerRank%cfg.BankGroups != 0:
		return nil, fmt.Errorf("dram: bank groups %d must divide banks %d", cfg.BankGroups, cfg.BanksPerRank)
	case cfg.RowBytes <= 0 || cfg.RowBytes%cache.LineBytes != 0:
		return nil, fmt.Errorf("dram: line size %d must divide row size %d", cache.LineBytes, cfg.RowBytes)
	case cfg.Timing.TCKNs <= 0:
		return nil, fmt.Errorf("dram: clock period must be positive")
	}
	s := &System{cfg: cfg, colsPerRow: uint64(cfg.RowBytes / cache.LineBytes)}
	s.chans = make([]*channel, cfg.Channels)
	for i := range s.chans {
		s.chans[i] = &channel{
			banks:        make([]bank, cfg.RanksPerChan*cfg.BanksPerRank),
			lastActNs:    make([]float64, cfg.RanksPerChan),
			actWindow:    make([][]float64, cfg.RanksPerChan),
			actIdx:       make([]int, cfg.RanksPerChan),
			lastActGroup: make([]int, cfg.RanksPerChan),
			lastCASNs:    math.Inf(-1),
			lastCASGroup: -1,
		}
		for r := 0; r < cfg.RanksPerChan; r++ {
			s.chans[i].actWindow[r] = make([]float64, 4)
			for k := range s.chans[i].actWindow[r] {
				s.chans[i].actWindow[r][k] = math.Inf(-1)
			}
			s.chans[i].lastActNs[r] = math.Inf(-1)
		}
		for b := range s.chans[i].banks {
			s.chans[i].banks[b].openRow = -1
			s.chans[i].banks[b].lastActNs = math.Inf(-1)
		}
	}
	return s, nil
}

// Clone returns an independent copy of the system's bank, bus and
// statistics state, with observability off.
func (s *System) Clone() *System {
	n := *s
	n.chans = make([]*channel, len(s.chans))
	for i, ch := range s.chans {
		n.chans[i] = ch.clone()
	}
	n.bankObs = nil
	return &n
}

// clone returns an independent copy of the channel.
func (ch *channel) clone() *channel {
	n := *ch
	n.banks = slices.Clone(ch.banks)
	n.lastActNs = slices.Clone(ch.lastActNs)
	n.actWindow = make([][]float64, len(ch.actWindow))
	for r, w := range ch.actWindow {
		n.actWindow[r] = slices.Clone(w)
	}
	n.actIdx = slices.Clone(ch.actIdx)
	n.lastActGroup = slices.Clone(ch.lastActGroup)
	return &n
}

// Stats returns the statistics accumulated since the last ResetStats.
func (s *System) Stats() Stats { return s.stats }

// ResetStats clears statistics while preserving bank/bus state — used at
// the warmup/measurement boundary of sampled simulation.
func (s *System) ResetStats() { s.stats = Stats{} }

// location is a decoded physical address.
type location struct {
	chanIdx int
	rank    int
	group   int // bank group within the rank
	bankIdx int // within channel: rank*BanksPerRank + bank
	row     int64
}

// decode maps a physical address to channel/group/rank/bank/row. The
// mapping places channel bits right above the line offset, then bank-group
// bits, then column bits: sequential lines rotate across channels and bank
// groups first (pipelining bursts at tCCD_S), then fill open rows — the
// group-interleaved variant of the scheme DRAMSim2 calls "scheme 7".
func (s *System) decode(addr uint64) location {
	la := addr >> cache.LineBits
	ch := int(la % uint64(s.cfg.Channels))
	la /= uint64(s.cfg.Channels)
	grp := int(la % uint64(s.cfg.BankGroups))
	la /= uint64(s.cfg.BankGroups)
	la /= s.colsPerRow // column bits (within-row position; irrelevant to timing)
	perGroup := s.cfg.BanksPerRank / s.cfg.BankGroups
	big := int(la % uint64(perGroup))
	la /= uint64(perGroup)
	rk := int(la % uint64(s.cfg.RanksPerChan))
	la /= uint64(s.cfg.RanksPerChan)
	bk := grp*perGroup + big
	return location{chanIdx: ch, rank: rk, group: grp, bankIdx: rk*s.cfg.BanksPerRank + bk, row: int64(la)}
}

// refreshPhaseNs returns the start of rank's first refresh window. Ranks
// are staggered across the tREFI period, and no window starts at t=0.
func (s *System) refreshPhaseNs(rank int) float64 {
	refi := float64(s.cfg.Timing.REFI) * s.cfg.Timing.TCKNs
	return refi * float64(rank+1) / float64(s.cfg.RanksPerChan+1)
}

// refreshAlign pushes t out of any all-bank refresh window of the rank.
// Refreshes are modeled as deterministic epochs: rank r refreshes during
// [phase(r) + k*tREFI, phase(r) + k*tREFI + tRFC).
func (s *System) refreshAlign(rank int, t float64) (float64, float64) {
	refi := float64(s.cfg.Timing.REFI) * s.cfg.Timing.TCKNs
	rfc := float64(s.cfg.Timing.RFC) * s.cfg.Timing.TCKNs
	phase := s.refreshPhaseNs(rank)
	rel := t - phase
	if rel < 0 {
		return t, 0
	}
	k := math.Floor(rel / refi)
	start := phase + k*refi
	if t < start+rfc {
		return start + rfc, start + rfc - t
	}
	return t, 0
}

// Submit issues one line-sized request at absolute time nowNs and returns
// the completion time (last data beat on the bus). Timestamps must be
// non-decreasing across calls. The policy is open-page: a row stays open
// after its access until a conflict or a refresh closes it.
func (s *System) Submit(addr uint64, write bool, nowNs float64) float64 {
	if nowNs < s.lastNowNs {
		panic(fmt.Sprintf("dram: time went backwards: %.3f after %.3f", nowNs, s.lastNowNs))
	}
	s.lastNowNs = nowNs

	loc := s.decode(addr)
	ch := s.chans[loc.chanIdx]
	b := &ch.banks[loc.bankIdx]
	tm := s.cfg.Timing
	tck := tm.TCKNs

	// Refresh: the bank cannot accept commands during its rank's window.
	t, stall := s.refreshAlign(loc.rank, nowNs)
	s.stats.RefreshStallsNs += stall
	if stall > 0 {
		// The refresh closed all rows in the rank.
		for i := 0; i < s.cfg.BanksPerRank; i++ {
			rb := &ch.banks[loc.rank*s.cfg.BanksPerRank+i]
			rb.openRow = -1
			if rb.actReadyNs < t {
				rb.actReadyNs = t
			}
		}
	}

	// Resolve the CAS issue time according to the row-buffer state.
	var casIssue float64
	var didAct, didPre bool
	switch {
	case b.openRow == loc.row:
		s.stats.RowHits++
		casIssue = math.Max(t, b.casReadyNs)
	case b.openRow >= 0:
		s.stats.RowConflicts++
		didPre, didAct = true, true
		pre := math.Max(t, b.preReadyNs)
		act := s.actConstraints(ch, loc.rank, loc.group, pre+float64(tm.RP)*tck)
		s.recordAct(ch, loc.rank, loc.group, act)
		b.lastActNs = act
		casIssue = act + float64(tm.RCD)*tck
	default:
		s.stats.RowClosed++
		didAct = true
		act := s.actConstraints(ch, loc.rank, loc.group, math.Max(t, b.actReadyNs))
		s.recordAct(ch, loc.rank, loc.group, act)
		b.lastActNs = act
		casIssue = act + float64(tm.RCD)*tck
	}

	// CAS-to-CAS spacing on the channel: tCCD_L within a bank group,
	// tCCD_S across groups (the DDR4 constraint that makes controllers
	// interleave groups).
	if !math.IsInf(ch.lastCASNs, -1) {
		ccd := tm.CCDS
		if loc.group == ch.lastCASGroup {
			ccd = tm.CCD
		}
		casIssue = math.Max(casIssue, ch.lastCASNs+float64(ccd)*tck)
	}

	// Write-to-read turnaround: a READ CAS may not issue until tWTR after
	// the end of the last write burst on the channel.
	if !write && ch.writeDataEndNs > 0 {
		casIssue = math.Max(casIssue, ch.writeDataEndNs+float64(tm.WTR)*tck)
	}

	// Data bus: the burst must wait for the bus, with a one-clock bubble
	// when the transfer direction flips (read-to-write driver turnaround).
	casLat := float64(tm.CL) * tck
	if write {
		casLat = float64(tm.CWL) * tck
	}
	dataStart := casIssue + casLat
	busReady := ch.busFreeNs
	if ch.lastWasWrite != write {
		busReady += tck
	}
	if dataStart < busReady {
		// Delay the CAS so data lines up with the free bus.
		shift := busReady - dataStart
		casIssue += shift
		dataStart = busReady
	}
	dataEnd := dataStart + tm.BurstNs()
	ch.busFreeNs = dataEnd
	ch.lastWasWrite = write
	ch.lastCASNs = casIssue
	ch.lastCASGroup = loc.group
	if write {
		ch.writeDataEndNs = dataEnd
	}

	// Update bank state.
	b.openRow = loc.row
	b.casReadyNs = casIssue + float64(tm.CCD)*tck
	if write {
		b.preReadyNs = math.Max(b.preReadyNs, dataEnd+float64(tm.WR)*tck)
	} else {
		b.preReadyNs = math.Max(b.preReadyNs, casIssue+float64(tm.RTP)*tck)
	}
	// tRAS: the row must stay open at least RAS after its activation.
	b.preReadyNs = math.Max(b.preReadyNs, b.lastActNs+float64(tm.RAS)*tck)
	b.actReadyNs = b.preReadyNs + float64(tm.RP)*tck

	if s.bankObs != nil {
		bc := &s.bankObs[loc.chanIdx][loc.bankIdx]
		if didAct {
			bc.ACT++
		}
		if didPre {
			bc.PRE++
		}
		if write {
			bc.WR++
		} else {
			bc.RD++
		}
	}

	// Statistics.
	if write {
		s.stats.Writes++
		s.stats.BytesWritten += cache.LineBytes
	} else {
		s.stats.Reads++
		s.stats.BytesRead += cache.LineBytes
	}
	return dataEnd
}

// actConstraints returns the earliest legal ACT time >= want for the rank,
// honoring tRRD_L/tRRD_S (ACT-to-ACT, by bank group) and tFAW (at most four
// ACTs per window).
func (s *System) actConstraints(ch *channel, rank, group int, want float64) float64 {
	tm := s.cfg.Timing
	t := want
	if last := ch.lastActNs[rank]; !math.IsInf(last, -1) {
		rrd := tm.RRDS
		if group == ch.lastActGroup[rank] {
			rrd = tm.RRD
		}
		t = math.Max(t, last+float64(rrd)*tm.TCKNs)
	}
	// The oldest of the last four ACTs bounds the next one by tFAW.
	oldest := ch.actWindow[rank][ch.actIdx[rank]]
	if !math.IsInf(oldest, -1) {
		t = math.Max(t, oldest+float64(tm.FAW)*tm.TCKNs)
	}
	return t
}

// recordAct records an activation at time t on the rank.
func (s *System) recordAct(ch *channel, rank, group int, t float64) {
	ch.lastActNs[rank] = t
	ch.lastActGroup[rank] = group
	ch.actWindow[rank][ch.actIdx[rank]] = t
	ch.actIdx[rank] = (ch.actIdx[rank] + 1) % 4
	s.stats.Activations++
}
