package sampling

import (
	"reflect"
	"testing"

	"ntcsim/internal/cache"
	"ntcsim/internal/cpu"
	"ntcsim/internal/dram"
	"ntcsim/internal/rng"
	"ntcsim/internal/sim"
	"ntcsim/internal/workload"
)

// window is a synthetic measurement window of the given UIPC.
func window(uipc float64, cycles int64) sim.Measurement {
	user := uint64(uipc * float64(cycles))
	return sim.Measurement{
		Cycles:           cycles,
		FreqHz:           1e9,
		DurationNs:       float64(cycles),
		UserInstructions: user,
		Instructions:     user + user/5,
		PerCore:          []cpu.Stats{{Cycles: uint64(cycles), UserInstructions: user}},
		LLC:              cache.Stats{Accesses: user / 50, Misses: user / 200},
		DRAM:             dram.Stats{BytesRead: 64 * (user / 200), BytesWritten: 64 * (user / 800)},
		LLCReads:         user / 60,
		LLCWrites:        user / 300,
	}
}

// sample adds synthetic windows of mean meanUIPC and standard deviation
// noise to a Result until its stop rule ends sampling.
func sample(seed uint64, meanUIPC, noise float64, cfg Config) Result {
	s := rng.New(seed)
	var res Result
	for {
		uipc := max(meanUIPC+noise*s.NormFloat64(), 0.01)
		if res.Add(window(uipc, cfg.MeasureCycles), cfg) {
			return res
		}
	}
}

func TestConvergesOnLowNoise(t *testing.T) {
	res := sample(1, 1.0, 0.005, QuickConfig())
	if !res.Converged {
		t.Fatalf("low-noise windows should converge, rel err %.4f after %d samples",
			res.RelErr(), len(res.Samples))
	}
	if res.UIPC.Mean() < 0.9 || res.UIPC.Mean() > 1.1 {
		t.Fatalf("mean UIPC = %v, want ~1.0", res.UIPC.Mean())
	}
}

func TestStopsAtMaxSamplesOnHighNoise(t *testing.T) {
	cfg := QuickConfig()
	cfg.MaxSamples = 5
	cfg.TargetRelErr = 0.001
	res := sample(2, 1.0, 0.8, cfg)
	if res.Converged {
		t.Fatal("noisy windows should not converge at 0.1% in 5 samples")
	}
	if len(res.Samples) != 5 {
		t.Fatalf("samples = %d, want MaxSamples", len(res.Samples))
	}
}

func TestMinSamplesHonored(t *testing.T) {
	cfg := QuickConfig()
	cfg.MinSamples = 4
	res := sample(3, 1.0, 0, cfg)
	if len(res.Samples) != 4 || !res.Converged {
		t.Fatalf("noise-free windows stopped after %d samples (converged %v), want exactly MinSamples 4",
			len(res.Samples), res.Converged)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("quick config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.FastForwardInstr = 0 },
		func(c *Config) { c.MinSamples = 1 },
		func(c *Config) { c.MaxSamples = 2; c.MinSamples = 3 },
		func(c *Config) { c.TargetRelErr = 0 },
	}
	for i, mutate := range bad {
		cfg := QuickConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPaperConfigDataServingWindows(t *testing.T) {
	// Paper Sec. IV: "run 100K cycles (2M cycles for Data Serving) ...
	// prior to collecting measurements for the subsequent 50K cycles (400K
	// for Data Serving)".
	std := PaperConfig(workload.WebSearch())
	if std.WarmupCycles != 100_000 || std.MeasureCycles != 50_000 {
		t.Fatalf("standard windows: %+v", std)
	}
	ds := PaperConfig(workload.DataServing())
	if ds.WarmupCycles != 2_000_000 || ds.MeasureCycles != 400_000 {
		t.Fatalf("data-serving windows: %+v", ds)
	}
	if confidence != 0.95 || std.TargetRelErr != 0.02 {
		t.Fatal("paper requires 95% confidence, 2% error")
	}
	for _, cfg := range []Config{std, ds} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAggregates(t *testing.T) {
	cfg := QuickConfig()
	res := sample(5, 0.8, 0.001, cfg)
	want := sim.Measurement{FreqHz: res.Samples[0].FreqHz, PerCore: make([]cpu.Stats, 1)}
	for _, m := range res.Samples {
		want.Cycles += m.Cycles
		want.DurationNs += m.DurationNs
		want.Instructions += m.Instructions
		want.UserInstructions += m.UserInstructions
		want.PerCore[0].Cycles += m.PerCore[0].Cycles
		want.PerCore[0].UserInstructions += m.PerCore[0].UserInstructions
		want.LLC.Accesses += m.LLC.Accesses
		want.LLC.Misses += m.LLC.Misses
		want.DRAM.BytesRead += m.DRAM.BytesRead
		want.DRAM.BytesWritten += m.DRAM.BytesWritten
		want.LLCReads += m.LLCReads
		want.LLCWrites += m.LLCWrites
	}
	if !reflect.DeepEqual(res.Total, want) {
		t.Fatalf("Total is not the sum of the windows:\n got %+v\nwant %+v", res.Total, want)
	}
	if want.Cycles != int64(len(res.Samples))*cfg.MeasureCycles {
		t.Fatal("cycle aggregation wrong")
	}
	if res.MeanUIPS() <= 0 {
		t.Fatal("UIPS should be positive")
	}
}

func TestEndToEndWithCluster(t *testing.T) {
	// Integration: sample a real cluster the SMARTS way (fast-forward
	// between samples, a detailed warmup before each window) until the
	// stop rule ends it.
	if testing.Short() {
		t.Skip("integration test")
	}
	cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FastForward(400_000)
	cfg := QuickConfig()
	var res Result
	for k := 0; ; k++ {
		if k > 0 {
			cl.FastForward(cfg.FastForwardInstr)
		}
		cl.Run(cfg.WarmupCycles)
		if res.Add(cl.Measure(cfg.MeasureCycles), cfg) {
			break
		}
	}
	if res.UIPC.Mean() <= 0 {
		t.Fatal("sampled UIPC should be positive")
	}
	if n := len(res.Samples); n < cfg.MinSamples || n > cfg.MaxSamples {
		t.Fatalf("stopped after %d samples, want %d..%d", n, cfg.MinSamples, cfg.MaxSamples)
	}
	if res.Total.ReadBandwidth() <= 0 {
		t.Fatal("sampled bandwidth should be positive")
	}
}
