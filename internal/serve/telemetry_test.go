package serve

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/rng"
)

// TestTelemetryConservation is the DES-side conservation property: over a
// utilization × fleet-shape grid, the per-cluster ledger the sampler
// collects must integrate back to the simulator's own EnergyJ within the
// default epsilon — no component dropped, double-charged or mis-scaled.
func TestTelemetryConservation(t *testing.T) {
	shapes := []struct{ clusters, cores int }{{1, 4}, {2, 4}, {9, 4}}
	for _, sh := range shapes {
		for _, rho := range []float64{0.3, 0.5, 0.7, 0.85} {
			gov := testGov(t, sh.clusters, sh.cores)
			// Load the fleet to roughly rho of its QoS-limited capacity.
			maxUIPS := gov.Curve.UIPSAt(gov.Curve.MaxFreq())
			lambda := rho * gov.Tail.MaxLoad(gov.QoSLimit, maxUIPS)
			sampler := timeseries.NewSampler()
			cfg := Config{
				Gov:       gov,
				Policy:    Tracking{},
				Balancer:  NewJSQ(),
				Trace:     constTrace(lambda, 20, time.Second),
				Warmup:    2 * time.Second,
				Telemetry: sampler.Series("des"),
			}
			sim, err := New(cfg, rng.New(uint64(sh.clusters)*1000+uint64(rho*100)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := sampler.Audit(0); err != nil {
				t.Fatalf("shape %dx%d rho %.2f: %v", sh.clusters, sh.cores, rho, err)
			}
			// The Result carries the same ledger the series collected.
			if got, want := res.Ledger.TotalJ(), res.EnergyJ; math.Abs(got-want) > timeseries.DefaultEpsilon*math.Max(1, want) {
				t.Fatalf("shape %dx%d rho %.2f: Result.Ledger %g J vs EnergyJ %g J",
					sh.clusters, sh.cores, rho, got, want)
			}
			wantSamples := 20 * sh.clusters
			if n := sampler.Series("des").Len(); n != wantSamples {
				t.Fatalf("shape %dx%d rho %.2f: %d samples, want %d",
					sh.clusters, sh.cores, rho, n, wantSamples)
			}
		}
	}
}

// TestTelemetryDoesNotPerturbRun pins the nil gate from the DES side: a
// run with the sampler attached must produce byte-for-byte the same
// Result (ledger aside) as one without.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	run := func(tel *timeseries.Series) Result {
		cfg := testConfig(t)
		cfg.Telemetry = tel
		sim, err := New(cfg, rng.New(99))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(timeseries.NewSampler().Series("x"))
	// The ledger is attribution-only; everything else must match exactly.
	on.Ledger = timeseries.Ledger{}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("telemetry perturbed the simulation:\noff %+v\non  %+v", off, on)
	}
}

// TestEnergyGauges checks the satellite: with a metrics registry attached
// the run publishes the six-component ledger as gauges under the
// scenario-scoped prefix, summing to EnergyJ.
func TestEnergyGauges(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig(t)
	cfg.Metrics = reg
	sim, err := New(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	prefix := "serve.energy." + cfg.Policy.Name() + "." + cfg.Balancer.Name() + "."
	var sum float64
	for _, comp := range []string{"core_dyn_j", "core_leak_j", "llc_j", "xbar_j", "io_j", "dram_j"} {
		v := reg.Gauge(prefix + comp).Value()
		if v < 0 {
			t.Fatalf("gauge %s%s negative: %g", prefix, comp, v)
		}
		sum += v
	}
	if sum == 0 {
		t.Fatal("energy gauges all zero")
	}
	if math.Abs(sum-res.EnergyJ) > timeseries.DefaultEpsilon*math.Max(1, res.EnergyJ) {
		t.Fatalf("gauges sum to %g J, EnergyJ is %g J", sum, res.EnergyJ)
	}
}
