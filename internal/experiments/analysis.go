package experiments

import (
	"context"
	"fmt"

	"ntcsim/internal/platform"
	"ntcsim/internal/rng"
	"ntcsim/internal/tech"
	"ntcsim/internal/thermal"
	"ntcsim/internal/workload"
)

// runVariation reproduces the paper's Sec. II-A item 4 argument: process
// variation is magnified at near-threshold voltages, and per-core body
// bias recovers the loss.
func runVariation(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Sec. II-A(4): near-threshold variation and body-bias compensation ==")
	t := tech.FDSOI28()
	offsets := tech.DefaultVariation().SampleOffsets(platform.Default().TotalCores(), rng.New(p.Seed))
	w := env.tbl()
	fmt.Fprintln(w, "Vdd\tnominal_MHz\tuncompensated_MHz\tloss\tcompensated_MHz\tresidual_loss\tmax_bias_V")
	for _, vdd := range []float64{0.5, 0.6, 0.7, 0.9, 1.1, 1.3} {
		imp := t.AnalyzeVariation(vdd, offsets)
		fmt.Fprintf(w, "%.2f\t%.0f\t%.0f\t%.1f%%\t%.0f\t%.1f%%\t%.2f\n",
			imp.Vdd, imp.NominalHz/1e6, imp.UncompensatedHz/1e6,
			100*imp.LossUncompensated, imp.CompensatedHz/1e6,
			100*imp.LossCompensated, imp.MaxBiasUsedV)
	}
	return w.Flush()
}

// standingPower is the chip's power apart from its cores at the standing
// traffic the TDP and diurnal-day analyses charge: the uncore at 100M LLC
// reads, 40M LLC writes and 150M crossbar transfers per second in every
// cluster, and the memory background.
func standingPower(s *platform.Spec) platform.ServerPower {
	var p platform.ServerPower
	p.LLCW, p.XbarW, p.IOW = s.UncorePower(100e6, 40e6, 150e6)
	p.DRAMW = s.MemoryPowerW(0, 0)
	return p
}

// runDarkSilicon reproduces the Sec. V-B1 TDP argument: at NT operating
// points the 100W budget feeds every core; at peak frequency it cannot.
func runDarkSilicon(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Sec. V-B1: TDP and dark silicon across the DVFS range ==")
	e := p.NewExplorer(env)
	m := thermal.Default()
	uncoreW := standingPower(e.Platform).UncoreW()
	freqs := []float64{0.2e9, 0.5e9, 1.0e9, 1.5e9, 2.0e9, 2.5e9, 3.0e9, 3.2e9}
	pts, err := thermal.DarkSilicon(m, e.Platform.Core, uncoreW, e.Platform.TotalCores(), freqs)
	if err != nil {
		return err
	}
	w := env.tbl()
	fmt.Fprintln(w, "freq_MHz\tVdd\tW/core\tactive_cores\tdark_fraction\tTj_at_budget")
	for _, pt := range pts {
		chipW := float64(pt.ActiveCores)*pt.PerCoreW + uncoreW
		fmt.Fprintf(w, "%.0f\t%.3f\t%.2f\t%d/%d\t%.0f%%\t%.1fC\n",
			pt.FreqHz/1e6, pt.Vdd, pt.PerCoreW, pt.ActiveCores, pt.TotalCores,
			100*pt.DarkFraction, m.JunctionTemp(chipW))
	}
	return w.Flush()
}

// runInterference quantifies the co-scheduling interference of
// Sec. III-B1 and its relaxation at near-threshold frequencies.
func runInterference(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Sec. III-B1: co-scheduling interference (victim: web-search, aggressor: bubble) ==")
	w := env.tbl()
	fmt.Fprintln(w, "freq_MHz\tsolo_UIPC\tmixed_UIPC\tslowdown\tlat/QoS_solo\tlat/QoS_mixed\tviolated")
	reps, err := p.NewExplorer(env).Interference(ctx, workload.WebSearch(), workload.Bubble(),
		[]float64{0.26e9, 0.5e9, 1.0e9, 2.0e9})
	if err != nil {
		return err
	}
	for _, rep := range reps {
		fmt.Fprintf(w, "%.0f\t%.3f\t%.3f\t%.2fx\t%.3f\t%.3f\t%v\n",
			rep.FreqHz/1e6, rep.SoloUIPC, rep.MixedUIPC, rep.Slowdown,
			rep.NormalizedSolo, rep.NormalizedMixed, rep.QoSViolated)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "(interference relaxes at NT frequencies — the opening the paper's")
	fmt.Fprintln(out, " discussion identifies for public-cloud consolidation)")
	return nil
}
