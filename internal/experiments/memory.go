package experiments

import (
	"context"
	"fmt"

	"ntcsim/internal/cache"
	"ntcsim/internal/dram"
	"ntcsim/internal/rng"
)

// runMemory explores the memory subsystem on the DRAMSim2-style backend:
// it replays synthetic traffic patterns (stream, random, zipf, row
// ping-pong) through the DDR4 and LPDDR4 timing models in arrival order,
// and reports latency, bandwidth, row-hit rate and both power models (the
// paper's Table I bandwidth scaling and the event-level accounting).
func runMemory(ctx context.Context, p Params, env Env) error {
	const (
		requests = 20000 // per run
		gapNs    = 2.0   // mean inter-arrival gap
	)
	fmt.Fprintln(env.out(), "== Memory subsystem: traffic patterns x DDR4/LPDDR4 ==")
	ddr4 := dram.DefaultConfig()
	lpddr4 := dram.DefaultConfig()
	lpddr4.Timing = dram.LPDDR4()
	lpddr4.Power = dram.LPDDR4Power()
	w := env.tbl()
	fmt.Fprintln(w, "mem\tpattern\tavg_lat_ns\tmax_lat_ns\trow_hit\tBW_GB/s\tP_scaling_W\tP_event_W")
	for _, mem := range []struct {
		name string
		cfg  dram.Config
	}{{"ddr4", ddr4}, {"lpddr4", lpddr4}} {
		cfg := mem.cfg
		for _, pattern := range []string{"stream", "random", "zipf", "pingpong"} {
			if err := ctx.Err(); err != nil {
				return context.Cause(ctx)
			}
			trace, err := buildTrace(pattern, cfg, requests, gapNs, p.Seed)
			if err != nil {
				return err
			}
			sys, err := dram.New(cfg)
			if err != nil {
				return err
			}
			for i := range trace {
				trace[i].DoneNs = sys.Submit(trace[i].Addr, trace[i].Write, trace[i].ArriveNs)
			}
			backend := sys.Stats()
			st := dram.Summarize(trace, backend)
			e := cfg.Power.Energies(cfg.Timing, cfg.ChipsPerRank)
			ranks := cfg.Channels * cfg.RanksPerChan
			secs := st.LastDoneNs * 1e-9
			bw := float64(backend.BytesRead+backend.BytesWritten) / secs
			scaling := e.Power(ranks, float64(backend.BytesRead)/secs, float64(backend.BytesWritten)/secs)
			event := e.Events(0.95).EventPower(backend, ranks, st.LastDoneNs)
			fmt.Fprintf(w, "%s\t%s\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				mem.name, pattern, st.AvgLatencyNs, st.MaxLatencyNs, st.RowHitRate,
				bw/1e9, scaling, event)
		}
	}
	return w.Flush()
}

// buildTrace generates n requests of the named pattern in strictly
// increasing arrival order.
func buildTrace(pattern string, cfg dram.Config, n int, gapNs float64, seed uint64) ([]dram.Request, error) {
	s := rng.New(seed)
	lineStride := uint64(cache.LineBytes)
	capacity := cfg.TotalBytes()
	reqs := make([]dram.Request, 0, n)
	now := 0.0
	var zipf *rng.Zipf
	if pattern == "zipf" {
		zipf = rng.NewZipf(s.Derive("zipf"), 1<<16, 1.1)
	}
	// Row ping-pong strides (same bank, different rows).
	sameRow := uint64(cache.LineBytes * cfg.Channels * cfg.BankGroups)
	rowStride := sameRow * uint64(cfg.RowBytes/cache.LineBytes) *
		uint64(cfg.BanksPerRank/cfg.BankGroups) * uint64(cfg.RanksPerChan)

	for i := 0; i < n; i++ {
		now += s.Exponential(gapNs)
		var addr uint64
		switch pattern {
		case "stream":
			addr = uint64(i) * lineStride
		case "random":
			addr = s.Uint64n(capacity/lineStride) * lineStride
		case "zipf":
			addr = uint64(zipf.Next()) * lineStride
		case "pingpong":
			base := uint64(0)
			if i%2 == 1 {
				base = rowStride
			}
			addr = base + uint64(i/2)*sameRow
		default:
			return nil, fmt.Errorf("unknown pattern %q", pattern)
		}
		reqs = append(reqs, dram.Request{Addr: addr % capacity, Write: s.Bool(0.3), ArriveNs: now})
	}
	return reqs, nil
}
