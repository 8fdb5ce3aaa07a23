package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ntcsim/internal/governor"
	"ntcsim/internal/platform"
	"ntcsim/internal/qos"
	"ntcsim/internal/rng"
)

// testGov builds a governor config for a fleet of clusters x perCluster
// cores, mirroring the governor package's own test fixture: web-search-like
// baseline (50ms p99 at 25 GUIPS), 200ms QoS limit.
func testGov(t *testing.T, clusters, perCluster int) *governor.Config {
	t.Helper()
	spec := platform.Default()
	spec.Clusters = clusters
	spec.Cluster.CoresPerCluster = perCluster
	curve, err := governor.NewPerfCurve([]governor.PerfPoint{
		{FreqHz: 0.2e9, UIPS: 4e9}, {FreqHz: 0.5e9, UIPS: 9e9}, {FreqHz: 1.0e9, UIPS: 16e9},
		{FreqHz: 1.5e9, UIPS: 21e9}, {FreqHz: 2.0e9, UIPS: 25e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &governor.Config{
		Platform:       spec,
		Curve:          curve,
		Tail:           qos.NewTailModel(clusters*perCluster, 50*time.Millisecond, 25e9),
		QoSLimit:       200 * time.Millisecond,
		Uncore:         governor.UncoreBreakdown{IOW: 23},
		MemBackgroundW: 15,
		MemDynPerReq:   1e-3,
		Margin:         0.85,
	}
}

// constTrace builds a flat trace of the given rate and length.
func constTrace(lambda float64, steps int, step time.Duration) governor.LoadTrace {
	tr := governor.LoadTrace{Step: step, Lambda: make([]float64, steps)}
	for i := range tr.Lambda {
		tr.Lambda[i] = lambda
	}
	return tr
}

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Gov:      testGov(t, 2, 4),
		Policy:   Tracking{},
		Balancer: NewJSQ(),
		Trace:    constTrace(300, 10, time.Second),
		Warmup:   2 * time.Second,
	}
}

func TestNewValidation(t *testing.T) {
	base := testConfig(t)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil gov", func(c *Config) { c.Gov = nil }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"nil balancer", func(c *Config) { c.Balancer = nil }},
		{"nil platform", func(c *Config) { c.Gov = testGov(t, 2, 4); c.Gov.Platform = nil }},
		{"zero clusters", func(c *Config) { c.Gov = testGov(t, 2, 4); c.Gov.Platform.Clusters = 0 }},
		{"negative cores", func(c *Config) { c.Gov = testGov(t, 2, 4); c.Gov.Platform.Cluster.CoresPerCluster = -1 }},
		{"core mismatch", func(c *Config) { c.Gov = testGov(t, 2, 4); c.Gov.Platform.Cluster.CoresPerCluster = 3 }},
		{"empty trace", func(c *Config) { c.Trace = governor.LoadTrace{} }},
		{"bad margin", func(c *Config) { c.Gov = testGov(t, 2, 4); c.Gov.Margin = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg, rng.New(1)); err == nil {
				t.Fatalf("New accepted invalid config (%s)", tc.name)
			}
		})
	}
	if _, err := New(base, nil); err == nil {
		t.Fatal("New accepted nil seed")
	}
	if _, err := New(base, rng.New(1)); err != nil {
		t.Fatalf("New rejected valid config: %v", err)
	}
}

func TestRunConservation(t *testing.T) {
	sim, err := New(testConfig(t), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrivals == 0 {
		t.Fatal("no arrivals generated")
	}
	if res.Served+res.Dropped != res.Arrivals {
		t.Fatalf("conservation: arrivals %d != served %d + dropped %d",
			res.Arrivals, res.Served, res.Dropped)
	}
	if res.Dropped != 0 {
		t.Fatalf("unbounded queue dropped %d requests", res.Dropped)
	}
	if res.EnergyJ <= 0 || res.AvgPowerW <= 0 {
		t.Fatalf("energy not accounted: %v J, %v W", res.EnergyJ, res.AvgPowerW)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.P999 < res.P99 || res.P95 < res.P50 {
		t.Fatalf("implausible quantiles: p50=%v p95=%v p99=%v p999=%v",
			res.P50, res.P95, res.P99, res.P999)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		sim, err := New(testConfig(t), rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config+seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestQueueCapDrops(t *testing.T) {
	cfg := testConfig(t)
	// Saturate: offered load well beyond fleet capacity with a tiny queue.
	cfg.Trace = constTrace(5000, 4, time.Second)
	cfg.Policy = Static{FreqHz: cfg.Gov.Curve.MaxFreq()}
	cfg.QueueCap = 4
	sim, err := New(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("saturated bounded queue dropped nothing")
	}
	if res.Served+res.Dropped != res.Arrivals {
		t.Fatalf("conservation with drops: %d != %d + %d", res.Arrivals, res.Served, res.Dropped)
	}
	if clusters := cfg.Gov.Platform.Clusters; res.MaxQueue > cfg.QueueCap*clusters {
		t.Fatalf("backlog %d exceeded cap %d x %d clusters", res.MaxQueue, cfg.QueueCap, clusters)
	}
}

// TestGovernorReactsToLoad: under a spike trace the tracking policy must
// raise frequency during the spike relative to the quiet phase — the
// closed-loop behavior the package exists to demonstrate.
func TestGovernorReactsToLoad(t *testing.T) {
	cfg := testConfig(t)
	cfg.Trace = governor.SpikeTrace(12, time.Second, 100, 8, 6, 3)
	sim, err := New(cfg, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sim.runUntil(ctx, 5); err != nil {
		t.Fatal(err)
	}
	quiet, quietBoost := sim.decision.FreqHz, sim.decision.Boost
	if err := sim.runUntil(ctx, 6); err != nil {
		t.Fatal(err)
	}
	spike := sim.decision.FreqHz
	if spike <= quiet {
		t.Fatalf("tracking policy did not escalate on spike: quiet %.1f GHz, spike %.1f GHz",
			quiet/1e9, spike/1e9)
	}
	// The 8x spike steps the plan up by more than 1.5x, which tracking
	// absorbs with an FBB boost; the quiet epoch before it needs none.
	if quietBoost || spike <= 1.5*quiet || !sim.decision.Boost {
		t.Fatalf("quiet %.2f GHz (boost %v), spike %.2f GHz (boost %v): want a >1.5x step under boost",
			quiet/1e9, quietBoost, spike/1e9, sim.decision.Boost)
	}
}

// TestRaceToIdleBeatsMaxFrequencyEnergy: with sleep enabled on idle
// capacity, the same served work must cost less energy.
func TestRaceToIdleBeatsMaxFrequencyEnergy(t *testing.T) {
	run := func(pol Policy) Result {
		cfg := testConfig(t)
		cfg.Trace = constTrace(150, 8, time.Second)
		cfg.Policy = pol
		sim, err := New(cfg, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fmax := run(Static{Label: "max-frequency", FreqHz: 2.0e9})
	race := run(Static{Label: "race-to-idle", FreqHz: 2.0e9, Sleep: true})
	if race.EnergyJ >= fmax.EnergyJ {
		t.Fatalf("race-to-idle energy %.1f J >= max-frequency %.1f J", race.EnergyJ, fmax.EnergyJ)
	}
	// Same arrival process (identical seed): the latency profile matches.
	if race.Arrivals != fmax.Arrivals {
		t.Fatalf("same seed produced different arrival counts: %d vs %d", race.Arrivals, fmax.Arrivals)
	}
}

func TestCancellation(t *testing.T) {
	cfg := testConfig(t)
	cfg.Trace = constTrace(300, 1000, time.Second)
	sim, err := New(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sim.runUntil(ctx, 1000); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestDiurnalDayPolicyClaims carries the Sec. V-C claims over a compressed
// diurnal day whose peak is 70% of the QoS capacity at fmax: tracking the
// load saves energy against racing to idle, which saves energy against
// always-on max frequency; nobody drops a request; and max frequency
// keeps its p99 within the QoS limit.
func TestDiurnalDayPolicyClaims(t *testing.T) {
	gov := testGov(t, 2, 4)
	fmax := gov.Curve.MaxFreq()
	peak := 0.7 * gov.Tail.MaxLoad(gov.QoSLimit, gov.Curve.UIPSAt(fmax))
	trace := governor.DiurnalTrace(24, peak, 0.15, 0.04, 1.3, rng.New(11)).WithStep(time.Second)
	run := func(pol Policy) Result {
		cfg := testConfig(t)
		cfg.Gov, cfg.Policy, cfg.Trace = gov, pol, trace
		sim, err := New(cfg, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		res, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped != 0 {
			t.Fatalf("%s dropped %d requests", pol.Name(), res.Dropped)
		}
		return res
	}
	maxF := run(Static{Label: "max-frequency", FreqHz: fmax})
	race := run(Static{Label: "race-to-idle", FreqHz: fmax, Sleep: true})
	track := run(Tracking{})
	if !(track.EnergyJ < race.EnergyJ && race.EnergyJ < maxF.EnergyJ) {
		t.Fatalf("energy order broken: tracking %.1f J, race-to-idle %.1f J, max-frequency %.1f J",
			track.EnergyJ, race.EnergyJ, maxF.EnergyJ)
	}
	if maxF.P99 > gov.QoSLimit {
		t.Fatalf("max-frequency p99 %v over the %v QoS limit", maxF.P99, gov.QoSLimit)
	}
}
