package core_test

import (
	"context"
	"fmt"
	"log"

	"ntcsim/internal/core"
	"ntcsim/internal/workload"
)

// Simulate one scale-out workload on the paper's 36-core FD-SOI server at
// three DVFS points and print throughput, power at the three scopes
// (cores / SoC / server), the QoS metric and server efficiency.
func ExampleExplorer_Sweep() {
	explorer := core.NewExplorer()
	// A shorter warmup keeps the example fast; PaperFidelity selects the
	// paper's settings.
	explorer.WarmInstr = 1_000_000

	app := workload.WebSearch()
	fmt.Printf("workload: %s (%s, QoS %v)\n\n", app.Name, app.Class, app.QoSLimit)

	sweep, err := explorer.Sweep(context.Background(), app, []float64{0.3e9, 1.0e9, 2.0e9})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %-7s %-10s %-22s %-8s %s\n",
		"freq", "Vdd", "UIPS", "power cores/SoC/server", "lat/QoS", "eff server")
	for _, pt := range sweep.Points {
		fmt.Printf("%-8s %.3fV  %6.2f G   %5.1f / %5.1f / %5.1f W   %6.3f   %.3f GUIPS/W\n",
			fmt.Sprintf("%.1fGHz", pt.FreqHz/1e9),
			pt.Op.Vdd,
			pt.UIPSChip/1e9,
			pt.Power.CoresW(), pt.Power.SoCW(), pt.Power.TotalW(),
			pt.Metric,
			pt.EffServer/1e9)
	}

	o := sweep.Optima()
	fmt.Printf("\nmost server-efficient point meeting QoS: %.1f GHz (%.3f GUIPS/W)\n",
		o.QoSBestServer.FreqHz/1e9, o.QoSBestServer.EffServer/1e9)
	// Output:
	// workload: web-search (scale-out, QoS 200ms)
	//
	// freq     Vdd     UIPS       power cores/SoC/server lat/QoS  eff server
	// 0.3GHz   0.557V   11.54 G     2.0 /  25.0 /  43.4 W    0.649   0.266 GUIPS/W
	// 1.0GHz   0.731V   22.96 G    10.7 /  34.5 /  56.6 W    0.326   0.406 GUIPS/W
	// 2.0GHz   0.994V   27.22 G    39.7 /  63.7 /  87.1 W    0.275   0.313 GUIPS/W
	//
	// most server-efficient point meeting QoS: 1.0 GHz (0.406 GUIPS/W)
}

// The FD-SOI body-bias knobs (paper Sec. II-A): forward body bias as a
// sub-microsecond frequency boost for computation spikes, reverse body
// bias as a state-retentive sleep mode, and optimal bias per performance
// target as an energy knob.
func ExampleExplorer_BoostAnalysis() {
	explorer := core.NewExplorer()
	t := explorer.Platform.Tech

	fmt.Printf("technology: %s (FBB up to +%.0fV, Vth shift %.0f mV/V)\n\n",
		t.Name, t.BodyBiasMax, t.VthShiftPerVolt*1000)

	// 1. Boost: extra frequency at fixed voltage, switched in <1us.
	fmt.Println("1. FBB boost (manage computation spikes):")
	for _, vdd := range []float64{0.5, 0.6, 0.8} {
		rep, err := explorer.BoostAnalysis(vdd)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %.2fV: %4.0f MHz -> %4.0f MHz (%.1fx) in %v, %5.1fW -> %5.1fW\n",
			rep.Vdd, rep.BaseFreqHz/1e6, rep.BoostFreqHz/1e6, rep.Speedup,
			rep.TransitionTime, rep.BasePowerW, rep.BoostPowerW)
	}

	// 2. Sleep: state-retentive leakage reduction via RBB.
	fmt.Println("\n2. RBB sleep (state-retentive leakage management):")
	for _, ghz := range []float64{0.2, 0.5, 1.0} {
		rep, err := explorer.SleepAnalysis(ghz * 1e9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   Vdd %.2fV: idle %5.2fW -> sleep %5.2fW (%.1fx reduction)\n",
			rep.Vdd, rep.ActiveIdleW, rep.RBBSleepW, rep.Reduction)
	}

	// 3. Optimal bias: the best-energy point for a performance target.
	fmt.Println("\n3. Optimal FBB per performance target (36-core chip power):")
	for _, ghz := range []float64{0.5, 1.0, 2.0, 3.0} {
		op0, w0, err := explorer.Platform.Core.PointAt(ghz*1e9, 0, 1.0)
		var zero string
		if err != nil {
			zero = "unreachable"
		} else {
			zero = fmt.Sprintf("%.3fV %5.1fW", op0.Vdd, 36*w0)
		}
		opB, wB, err := explorer.Platform.Core.OptimalBias(ghz*1e9, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   %.1f GHz: zero-bias %-16s | optimal FBB +%.2fV: %.3fV %5.1fW\n",
			ghz, zero, opB.Vbb, opB.Vdd, 36*wB)
	}

	// The same knob extends the frequency range beyond zero-bias VddMax.
	maxZero := t.MaxFrequency(t.VddMax, 0)
	maxBoost := t.MaxFrequency(t.VddMax, t.BodyBiasMax)
	fmt.Printf("\nrange extension: %.2f GHz (zero bias) -> %.2f GHz (max FBB)\n",
		maxZero/1e9, maxBoost/1e9)
	// Output:
	// technology: 28nm UTBB FD-SOI (LVT) (FBB up to +3V, Vth shift 85 mV/V)
	//
	// 1. FBB boost (manage computation spikes):
	//    0.50V:  100 MHz ->  622 MHz (6.2x) in 1µs,   0.7W ->   6.2W
	//    0.60V:  467 MHz -> 1087 MHz (2.3x) in 1µs,   3.5W ->  13.1W
	//    0.80V: 1276 MHz -> 1933 MHz (1.5x) in 1µs,  16.4W ->  39.5W
	//
	// 2. RBB sleep (state-retentive leakage management):
	//    Vdd 0.53V: idle  0.24W -> sleep  0.03W (8.5x reduction)
	//    Vdd 0.61V: idle  0.37W -> sleep  0.04W (8.5x reduction)
	//    Vdd 0.73V: idle  0.71W -> sleep  0.08W (8.5x reduction)
	//
	// 3. Optimal FBB per performance target (36-core chip power):
	//    0.5 GHz: zero-bias 0.608V   3.8W    | optimal FBB +0.40V: 0.567V   3.7W
	//    1.0 GHz: zero-bias 0.731V  10.7W    | optimal FBB +0.62V: 0.659V  10.0W
	//    2.0 GHz: zero-bias 0.994V  39.7W    | optimal FBB +0.59V: 0.914V  37.7W
	//    3.0 GHz: zero-bias 1.300V 106.1W    | optimal FBB +0.22V: 1.267V 105.4W
	//
	// range extension: 3.29 GHz (zero bias) -> 4.71 GHz (max FBB)
}
