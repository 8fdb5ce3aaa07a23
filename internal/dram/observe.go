package dram

// Observability instrumentation: per-bank DRAM command counts. Like the
// CPU's MSHR tracking, these are cumulative since EnableObs, live outside
// Stats/ResetStats (they feed the obs registry, harvested once per sweep
// point) and are not part of checkpoints. Submit touches them only behind
// a nil check on bankObs, keeping the disabled path identical to the seed.

// BankCommandCounts tallies the DRAM commands a single bank received.
// PRE counts the precharges of row conflicts; refresh-induced row
// closures are not counted as PRE (they are all-bank maintenance, not
// per-access commands).
type BankCommandCounts struct {
	ACT, PRE, RD, WR uint64
}

// EnableObs turns on per-bank command counting: one counter block per
// bank, indexed [channel][rank*BanksPerRank+bank].
func (s *System) EnableObs() {
	if s.bankObs != nil {
		return
	}
	s.bankObs = make([][]BankCommandCounts, s.cfg.Channels)
	for c := range s.bankObs {
		s.bankObs[c] = make([]BankCommandCounts, s.cfg.RanksPerChan*s.cfg.BanksPerRank)
	}
}

// PerBankCounts returns the per-bank command counts, indexed
// [channel][rank*BanksPerRank+bank], or nil when observability is off.
// The returned slices are live; callers must not mutate them.
func (s *System) PerBankCounts() [][]BankCommandCounts { return s.bankObs }
