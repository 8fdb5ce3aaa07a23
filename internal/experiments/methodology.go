package experiments

import (
	"context"
	"fmt"

	"ntcsim/internal/core"
	"ntcsim/internal/cpu"
	"ntcsim/internal/qos"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// runScaling validates the single-cluster-times-9 methodology (DESIGN.md
// simplification #2): per-cluster throughput as more clusters actively
// share the four DRAM channels.
func runScaling(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== methodology check: per-cluster UIPC vs active clusters sharing DRAM ==")
	e := p.NewExplorer(env)
	w := env.tbl()
	fmt.Fprintln(w, "clusters\tper-cluster_UIPC\tdrop_vs_1\tDRAM_read_GB/s")
	var base float64
	for _, n := range []int{1, 2, 3} {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		ch, err := sim.NewChip(e.Platform.Cluster, workload.WebSearch(), n, qos.BaselineFreqHz)
		if err != nil {
			return err
		}
		ch.SetJobs(e.Jobs)
		ch.FastForward(e.WarmInstr / 2)
		ch.Run(10000)
		ms, dstats := ch.Measure(40000)
		sum := 0.0
		for _, m := range ms {
			sum += m.UIPC()
		}
		per := sum / float64(n)
		if n == 1 {
			base = per
		}
		dur := ms[0].DurationNs * 1e-9
		fmt.Fprintf(w, "%d\t%.3f\t%.1f%%\t%.2f\n",
			n, per, 100*(1-per/base), float64(dstats.BytesRead)/dur/1e9)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "(a small drop justifies scaling one simulated cluster by the cluster count)")
	return nil
}

// runWorkloads prints the characterization table of the synthetic workload
// clones — the evidence that they reproduce published scale-out behavior.
func runWorkloads(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== workload characterization at 2GHz (synthetic clones) ==")
	e := p.NewExplorer(env)
	w := env.tbl()
	fmt.Fprintln(w, "workload\tUIPC/core\tL1D_hit\tL1I_hit\tLLC_hit\tmispredict\tDRAM_MPKI\tread_GB/s\tOS_frac\tstall(FE/ROB/dep/mem)")
	for _, prof := range append(workload.All(), workload.Extended()...) {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		cl, err := sim.NewCluster(e.Platform.Cluster, prof, qos.BaselineFreqHz)
		if err != nil {
			return err
		}
		cl.FastForward(e.WarmInstr)
		cl.Run(20000)
		m := cl.Measure(60000)
		cs := m.PerCore[0]
		mpki := float64(m.DRAM.Reads) / float64(m.Instructions) * 1000
		osFrac := 1 - float64(m.UserInstructions)/float64(m.Instructions)
		tot := float64(cs.FrontendStall+cs.ROBStall+cs.DepStall+cs.MemStall) + 1e-9
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f\t%.2f\t%.2f\t%.0f/%.0f/%.0f/%.0f%%\n",
			prof.Name, m.UIPC()/float64(cl.Cores()),
			cs.L1D.HitRate(), cs.L1I.HitRate(), m.LLC.HitRate(),
			cs.MispredictRate(), mpki, m.ReadBandwidth()/1e9, osFrac,
			100*float64(cs.FrontendStall)/tot, 100*float64(cs.ROBStall)/tot,
			100*float64(cs.DepStall)/tot, 100*float64(cs.MemStall)/tot)
	}
	return w.Flush()
}

// runPrefetch runs the stream-prefetcher ablation: the paper's platform
// has no L1D prefetcher; this extension quantifies what one would add.
func runPrefetch(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== extension ablation: L1D stream prefetcher on/off ==")
	w := env.tbl()
	fmt.Fprintln(w, "workload\tUIPC_off\tUIPC_on\tspeedup\textra_DRAM_traffic")
	for _, prof := range []*workload.Profile{workload.MediaStreaming(), workload.WebSearch()} {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		var uipc [2]float64
		var dram [2]uint64
		for i, pf := range []bool{false, true} {
			e := p.NewExplorer(env)
			e.Platform.Cluster.Core.StridePrefetch = pf
			cl, err := sim.NewCluster(e.Platform.Cluster, prof, qos.BaselineFreqHz)
			if err != nil {
				return err
			}
			cl.FastForward(e.WarmInstr)
			cl.Run(20000)
			m := cl.Measure(60000)
			uipc[i] = m.UIPC()
			dram[i] = m.DRAM.Reads
		}
		extra := float64(dram[1])/float64(dram[0]) - 1
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.2fx\t%+.1f%%\n",
			prof.Name, uipc[0], uipc[1], uipc[1]/uipc[0], 100*extra)
	}
	return w.Flush()
}

// runPorts runs the issue-port ablation: the unified 3-wide issue of the
// calibrated model vs an A57-like per-class port split.
func runPorts(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== extension ablation: unified issue vs A57-like port split ==")
	w := env.tbl()
	fmt.Fprintln(w, "workload\tUIPC_unified\tUIPC_ports\tdelta")
	for _, prof := range []*workload.Profile{workload.WebSearch(), workload.VMHighMem()} {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		var uipc [2]float64
		for i, ports := range []bool{false, true} {
			e := p.NewExplorer(env)
			if ports {
				e.Platform.Cluster.Core.Ports = cpu.A57Ports()
			}
			cl, err := sim.NewCluster(e.Platform.Cluster, prof, qos.BaselineFreqHz)
			if err != nil {
				return err
			}
			cl.FastForward(e.WarmInstr)
			cl.Run(20000)
			uipc[i] = cl.Measure(60000).UIPC()
		}
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%+.1f%%\n",
			prof.Name, uipc[0], uipc[1], 100*(uipc[1]/uipc[0]-1))
	}
	return w.Flush()
}

// runHetero demonstrates per-cluster DVFS consolidation (Sec. V-C): a chip
// slice hosting a latency-critical cluster at its QoS point alongside batch
// VM clusters parked at the near-threshold optimum, with shared DRAM.
func runHetero(ctx context.Context, p Params, env Env) error {
	out := env.out()
	fmt.Fprintln(out, "== Sec. V-C: heterogeneous per-cluster operation (3-cluster chip slice) ==")
	e := p.NewExplorer(env)
	scenarios := []struct {
		name  string
		specs []sim.ClusterSpec
	}{
		{"all-fast (3x web-search @2GHz)", []sim.ClusterSpec{
			{Profile: workload.WebSearch(), FreqHz: qos.BaselineFreqHz},
			{Profile: workload.WebSearch(), FreqHz: qos.BaselineFreqHz},
			{Profile: workload.WebSearch(), FreqHz: qos.BaselineFreqHz},
		}},
		{"consolidated (web-search @1GHz + 2x VM @300MHz)", []sim.ClusterSpec{
			{Profile: workload.WebSearch(), FreqHz: 1e9},
			{Profile: workload.VMHighMem(), FreqHz: 0.3e9},
			{Profile: workload.VMHighMem(), FreqHz: 0.3e9},
		}},
	}
	w := env.tbl()
	fmt.Fprintln(w, "scenario\tcluster\tworkload\tfreq_MHz\tUIPS_G\tcores_W")
	for _, sc := range scenarios {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		ch, err := sim.NewHeteroChip(e.Platform.Cluster, sc.specs)
		if err != nil {
			return err
		}
		ch.SetJobs(e.Jobs)
		ch.FastForward(e.WarmInstr / 2)
		ch.Run(20000)
		ms, _ := ch.Measure(60000)
		var totalUIPS, totalCoresW float64
		for i, m := range ms {
			op, err := e.Platform.Tech.OperatingPointFor(sc.specs[i].FreqHz, 0)
			if err != nil {
				return err
			}
			coresW := float64(e.Platform.Cluster.CoresPerCluster) * e.Platform.Core.Power(op, core.LoadActivity)
			totalUIPS += m.UIPS()
			totalCoresW += coresW
			fmt.Fprintf(w, "%s\t%d\t%s\t%.0f\t%.2f\t%.2f\n",
				sc.name, i, sc.specs[i].Profile.Name, sc.specs[i].FreqHz/1e6,
				m.UIPS()/1e9, coresW)
		}
		fmt.Fprintf(w, "%s\ttotal\t\t\t%.2f\t%.2f\n", sc.name, totalUIPS/1e9, totalCoresW)
	}
	return w.Flush()
}
