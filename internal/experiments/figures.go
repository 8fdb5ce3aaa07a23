package experiments

import (
	"context"
	"fmt"

	"ntcsim/internal/core"
	"ntcsim/internal/parallel"
	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/workload"
)

// runFig1 prints the technology voltage/power curves (Fig. 1).
func runFig1(ctx context.Context, p Params, env Env) error {
	out := env.out()
	cores := platform.Default().TotalCores()
	fmt.Fprintf(out, "== Figure 1: A57 voltage and chip power vs frequency (%d cores) ==\n", cores)
	curves := core.Fig1Curves(cores, core.Fig1Frequencies())
	w := env.tbl()
	fmt.Fprint(w, "freq_MHz")
	for _, c := range curves {
		fmt.Fprintf(w, "\t%s_Vdd\t%s_W", c.Label, c.Label)
	}
	fmt.Fprintln(w)
	for i := range curves[0].Points {
		fmt.Fprintf(w, "%.0f", curves[0].Points[i].FreqHz/1e6)
		for _, c := range curves {
			pt := c.Points[i]
			if pt.Reachable {
				fmt.Fprintf(w, "\t%.3f\t%.2f", pt.Vdd, pt.ChipPowerW)
			} else {
				fmt.Fprint(w, "\t-\t-")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// runTable1 prints the DDR4 rank energy figures (Table I).
func runTable1(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Table I: power of an 8x 4Gbit DDR4 chip at 1.6GHz ==")
	e := core.TableI()
	w := env.tbl()
	fmt.Fprintln(w, "E_IDLE [nJ/cycle]\tE_READ [nJ/byte]\tE_WRITE [nJ/byte]")
	fmt.Fprintf(w, "%.4f\t%.4f\t%.4f\n", e.IdlePerCycleNJ, e.ReadPerByteNJ, e.WritePerByteNJ)
	return w.Flush()
}

// runFig2 prints normalized 99th-percentile latency vs frequency (Fig. 2).
func runFig2(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Figure 2: 99th-percentile latency normalized to QoS vs core frequency ==")
	freqs := core.DefaultFrequencies()
	e := p.NewExplorer(env)
	sweeps, err := e.SweepMany(ctx, workload.ScaleOutProfiles(), freqs)
	if err != nil {
		return err
	}
	w := env.tbl()
	fmt.Fprint(w, "freq_MHz")
	for _, sw := range sweeps {
		fmt.Fprintf(w, "\t%s", sw.Workload.Name)
	}
	fmt.Fprintln(w, "\tQoS_limit")
	for i, f := range freqs {
		fmt.Fprintf(w, "%.0f", f/1e6)
		for _, sw := range sweeps {
			fmt.Fprintf(w, "\t%.3f", sw.Points[i].Metric)
		}
		fmt.Fprintln(w, "\t1.000")
	}
	return w.Flush()
}

// runEfficiency prints the three-scope efficiency tables shared by Fig. 3
// (scale-out) and Fig. 4 (virtualized).
func runEfficiency(ctx context.Context, p Params, env Env, profiles []*workload.Profile, title string) error {
	out := env.out()
	fmt.Fprintln(out, "==", title, "==")
	freqs := core.DefaultFrequencies()
	e := p.NewExplorer(env)
	sweeps, err := e.SweepMany(ctx, profiles, freqs)
	if err != nil {
		return err
	}
	scopes := []struct {
		name string
		get  func(core.Point) float64
	}{
		{"(a) cores", func(p core.Point) float64 { return p.EffCores }},
		{"(b) SoC", func(p core.Point) float64 { return p.EffSoC }},
		{"(c) server", func(p core.Point) float64 { return p.EffServer }},
	}
	for _, sc := range scopes {
		get := sc.get
		fmt.Fprintf(out, "-- %s efficiency, GUIPS/W --\n", sc.name)
		w := env.tbl()
		fmt.Fprint(w, "freq_MHz")
		for _, sw := range sweeps {
			fmt.Fprintf(w, "\t%s", sw.Workload.Name)
		}
		fmt.Fprintln(w)
		for i, f := range freqs {
			fmt.Fprintf(w, "%.0f", f/1e6)
			for _, sw := range sweeps {
				fmt.Fprintf(w, "\t%.3f", get(sw.Points[i])/1e9)
			}
			fmt.Fprintln(w)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// runOpt prints the QoS-feasible minimum frequencies and optimal
// efficiency points (Sec. V).
func runOpt(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Sec. V: QoS-feasible minimum frequencies and optimal efficiency points ==")
	freqs := core.DefaultFrequencies()
	e := p.NewExplorer(env)
	sweeps, err := e.SweepMany(ctx, workload.All(), freqs)
	if err != nil {
		return err
	}
	w := env.tbl()
	fmt.Fprintln(w, "workload\tmin_QoS_MHz\tbest_cores_MHz\tbest_SoC_MHz\tbest_server_MHz\tserver_eff_GUIPS/W")
	for i, prof := range workload.All() {
		sw := sweeps[i]
		o := sw.Optima()
		min := "-"
		if o.HasFeasible {
			min = fmt.Sprintf("%.0f", o.MinFeasibleHz/1e6)
		}
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.0f\t%.3f\n",
			prof.Name, min,
			o.BestCores.FreqHz/1e6, o.BestSoC.FreqHz/1e6, o.BestServer.FreqHz/1e6,
			o.BestServer.EffServer/1e9)
		if prof.Class == workload.Virtualized {
			var f2, f4 float64
			for _, pt := range sw.Points {
				d := qos.Degradation(sw.BaselineUIPS, pt.UIPSChip)
				if f4 == 0 && d <= qos.DegradationRelaxed {
					f4 = pt.FreqHz
				}
				if f2 == 0 && d <= qos.DegradationStrict {
					f2 = pt.FreqHz
				}
			}
			fmt.Fprintf(w, "  degradation bounds\t4x>=%.0f MHz\t2x>=%.0f MHz\t\t\t\n", f4/1e6, f2/1e6)
		}
	}
	return w.Flush()
}

// runAblation prints the Sec. V-C ablations: FD-SOI knobs, LPDDR4 what-if,
// cluster-size sensitivity.
func runAblation(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Sec. V-C ablations: FD-SOI knobs, LPDDR4, cluster size ==")
	e := p.NewExplorer(env)

	sleep, err := e.SleepAnalysis(0.5e9)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "-- RBB sleep at %.2fV: active-idle %.2fW -> sleep %.2fW (%.1fx, %v transition, state-retentive) --\n",
		sleep.Vdd, sleep.ActiveIdleW, sleep.RBBSleepW, sleep.Reduction, sleep.TransitionTime)

	boost, err := e.BoostAnalysis(0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "-- FBB boost at %.2fV: %.0f MHz -> %.0f MHz (%.1fx) for %.1fW -> %.1fW, %v transition --\n",
		boost.Vdd, boost.BaseFreqHz/1e6, boost.BoostFreqHz/1e6, boost.Speedup,
		boost.BasePowerW, boost.BoostPowerW, boost.TransitionTime)

	// LPDDR4 what-if on the most memory-hungry scale-out app; the two
	// memory configurations are independent full sweeps, so they run
	// concurrently under the -jobs budget.
	freqs := []float64{0.2e9, 0.5e9, 1.0e9, 1.5e9, 2.0e9}
	var ddr4Sweep, lpSweep *core.Sweep
	lpE := e.LPDDR4Explorer()
	// Prefix the variant explorers' telemetry so their sweeps of the same
	// workload names land in distinct series.
	lpE.TelemetryPrefix = "lpddr4/"
	err = parallel.Do(ctx, e.Jobs,
		func(ctx context.Context) error {
			var err error
			ddr4Sweep, err = e.Sweep(ctx, workload.MediaStreaming(), freqs)
			return err
		},
		func(ctx context.Context) error {
			var err error
			lpSweep, err = lpE.Sweep(ctx, workload.MediaStreaming(), freqs)
			return err
		})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "-- server efficiency (GUIPS/W), media-streaming: DDR4 vs LPDDR4 --")
	w := env.tbl()
	fmt.Fprintln(w, "freq_MHz\tDDR4\tLPDDR4\tgain")
	for i := range freqs {
		d, l := ddr4Sweep.Points[i].EffServer/1e9, lpSweep.Points[i].EffServer/1e9
		fmt.Fprintf(w, "%.0f\t%.3f\t%.3f\t%.2fx\n", freqs[i]/1e6, d, l, l/d)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Cluster-size sensitivity (paper Sec. II-B: trends are unaffected).
	fmt.Fprintln(out, "-- cluster-size ablation: per-core UIPC trend, 4-core vs 8-core clusters --")
	e4 := p.NewExplorer(env)
	e8 := p.eightCoreExplorer(env)
	var s4, s8 *core.Sweep
	err = parallel.Do(ctx, e.Jobs,
		func(ctx context.Context) error {
			var err error
			s4, err = e4.Sweep(ctx, workload.WebSearch(), freqs)
			return err
		},
		func(ctx context.Context) error {
			var err error
			s8, err = e8.Sweep(ctx, workload.WebSearch(), freqs)
			return err
		})
	if err != nil {
		return err
	}
	w = env.tbl()
	fmt.Fprintln(w, "freq_MHz\tUIPC/core_4c\tUIPC/core_8c")
	for i := range freqs {
		u4 := s4.Points[i].UIPSChip / freqs[i] / float64(e4.Platform.TotalCores())
		u8 := s8.Points[i].UIPSChip / freqs[i] / float64(e8.Platform.TotalCores())
		fmt.Fprintf(w, "%.0f\t%.3f\t%.3f\n", freqs[i]/1e6, u4, u8)
	}
	return w.Flush()
}

// eightCoreExplorer returns the cluster-size ablation's variant: clusters
// of 8 cores with eight 1MB LLC banks, which keeps the 4-core cluster's
// core:cache ratio and bank size, on 4 clusters for roughly the same die
// area.
func (p Params) eightCoreExplorer(env Env) *core.Explorer {
	e := p.NewExplorer(env)
	e.Platform.Clusters = 4
	c := &e.Platform.Cluster
	c.CoresPerCluster = 8
	c.LLC.Banks = 8
	c.LLC.CapacityBytes = 8 << 20
	e.TelemetryPrefix = "8c/"
	return e
}
