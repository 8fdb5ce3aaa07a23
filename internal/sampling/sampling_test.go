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

// fakeTarget produces measurement windows with controlled UIPC noise.
type fakeTarget struct {
	s        *rng.Stream
	meanUIPC float64
	noise    float64
	ff, warm int
	measures int
}

func (f *fakeTarget) FastForward(n uint64) { f.ff++ }
func (f *fakeTarget) Run(cycles int64)     { f.warm++ }
func (f *fakeTarget) Measure(cycles int64) sim.Measurement {
	f.measures++
	uipc := f.meanUIPC + f.noise*f.s.NormFloat64()
	if uipc < 0.01 {
		uipc = 0.01
	}
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

func TestConvergesOnLowNoise(t *testing.T) {
	ft := &fakeTarget{s: rng.New(1), meanUIPC: 1.0, noise: 0.005}
	cfg := QuickConfig()
	res, err := Run(ft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("low-noise target should converge, rel err %.4f after %d samples",
			res.RelErr(), len(res.Samples))
	}
	if res.UIPC.Mean() < 0.9 || res.UIPC.Mean() > 1.1 {
		t.Fatalf("mean UIPC = %v, want ~1.0", res.UIPC.Mean())
	}
}

func TestStopsAtMaxSamplesOnHighNoise(t *testing.T) {
	ft := &fakeTarget{s: rng.New(2), meanUIPC: 1.0, noise: 0.8}
	cfg := QuickConfig()
	cfg.MaxSamples = 5
	cfg.TargetRelErr = 0.001
	res, err := Run(ft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("noisy target should not converge at 0.1% in 5 samples")
	}
	if len(res.Samples) != 5 {
		t.Fatalf("samples = %d, want MaxSamples", len(res.Samples))
	}
}

func TestMinSamplesHonored(t *testing.T) {
	ft := &fakeTarget{s: rng.New(3), meanUIPC: 1.0, noise: 0}
	cfg := QuickConfig()
	cfg.MinSamples = 4
	res, err := Run(ft, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 4 {
		t.Fatalf("samples = %d, want >= MinSamples 4", len(res.Samples))
	}
}

func TestFastForwardBetweenSamplesOnly(t *testing.T) {
	ft := &fakeTarget{s: rng.New(4), meanUIPC: 1.0, noise: 0.5}
	cfg := QuickConfig()
	cfg.MaxSamples = 6
	cfg.TargetRelErr = 1e-9
	if _, err := Run(ft, cfg); err != nil {
		t.Fatal(err)
	}
	// The first sample starts without a fast-forward (checkpoint start).
	if ft.ff != ft.measures-1 {
		t.Fatalf("fast-forwards = %d for %d measures", ft.ff, ft.measures)
	}
	if ft.warm != ft.measures {
		t.Fatalf("each sample needs one warmup, got %d/%d", ft.warm, ft.measures)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MeasureCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.MinSamples = 1 },
		func(c *Config) { c.MaxSamples = 2; c.MinSamples = 3 },
		func(c *Config) { c.TargetRelErr = 0 },
	}
	for i, mutate := range bad {
		cfg := QuickConfig()
		mutate(&cfg)
		if _, err := Run(&fakeTarget{s: rng.New(1), meanUIPC: 1}, cfg); err == nil {
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
}

func TestAggregates(t *testing.T) {
	ft := &fakeTarget{s: rng.New(5), meanUIPC: 0.8, noise: 0.001}
	cfg := QuickConfig()
	res, err := Run(ft, cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	// Integration: sample a real cluster and verify convergence behavior.
	if testing.Short() {
		t.Skip("integration test")
	}
	cl, err := sim.NewCluster(sim.DefaultConfig(), workload.WebSearch(), 1e9)
	if err != nil {
		t.Fatal(err)
	}
	cl.FastForward(400_000)
	res, err := Run(cl, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.UIPC.Mean() <= 0 {
		t.Fatal("sampled UIPC should be positive")
	}
	if len(res.Samples) < 3 {
		t.Fatalf("expected at least MinSamples samples, got %d", len(res.Samples))
	}
	if res.Total.ReadBandwidth() <= 0 {
		t.Fatal("sampled bandwidth should be positive")
	}
}
