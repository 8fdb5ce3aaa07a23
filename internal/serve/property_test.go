package serve

import (
	"context"
	"math"
	"testing"
	"time"

	"ntcsim/internal/rng"
)

// TestSteadyStateMatchesAnalyticModel is the cross-validation property
// behind the whole layer: a single-cluster fleet (one central FIFO queue,
// k cores) under a static governor IS an M/M/k system, so the measured
// steady-state p99 must agree with qos.TailModel's exact sojourn quantile
// across a grid of utilizations and core counts.
//
// Agreement is required within 15%: the residual gap is sampling noise
// (tens of thousands of requests per point), the sketch's <1% relative
// error, and edge effects at the horizon. Multi-cluster fleets are NOT
// expected to match — JSQ over per-cluster queues is only an
// approximation of the central queue (see DESIGN.md §11) — which is why
// the property pins Clusters=1.
func TestSteadyStateMatchesAnalyticModel(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical steady-state run; skipped in -short")
	}
	ctx := context.Background()
	const tolerance = 0.15
	for _, cores := range []int{4, 16, 36} {
		for _, rho := range []float64{0.3, 0.5, 0.7, 0.85} {
			gov := testGov(t, 1, cores)
			fmax := gov.Curve.MaxFreq()
			uips := gov.Curve.UIPSAt(fmax)
			meanSvc := gov.Tail.MeanService(uips).Seconds()
			lambda := rho * float64(cores) / meanSvc

			// Enough post-warmup completions to nail p99: ~60k requests.
			warmup := 5 * time.Second
			horizon := time.Duration(60_000/lambda*1e9) + warmup
			steps := int(horizon/time.Second) + 1

			sim, err := New(Config{
				Gov:      gov,
				Policy:   Static{FreqHz: fmax},
				Balancer: NewJSQ(),
				Trace:    constTrace(lambda, steps, time.Second),
				Warmup:   warmup,
			}, rng.New(0xde5+uint64(cores)*100+uint64(rho*100)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}

			want, err := gov.Tail.TailQuantile(lambda, uips, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			relErr := math.Abs(float64(res.P99)-float64(want)) / float64(want)
			t.Logf("k=%2d rho=%.2f: DES p99 %8v analytic %8v relative error %5.1f%% (%d requests)",
				cores, rho, res.P99.Round(10*time.Microsecond), want.Round(10*time.Microsecond),
				100*relErr, res.Served)
			if relErr > tolerance {
				t.Errorf("k=%d rho=%.2f: DES p99 %v vs analytic %v diverges %.1f%% (> %.0f%%)",
					cores, rho, res.P99, want, 100*relErr, 100*tolerance)
			}
		}
	}
}

// TestDESTailMonotoneInLoad: independent of the analytic model, the
// measured p99 must grow with utilization — a sanity property of the
// event loop itself.
func TestDESTailMonotoneInLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical steady-state run; skipped in -short")
	}
	ctx := context.Background()
	gov := testGov(t, 2, 4)
	fmax := gov.Curve.MaxFreq()
	uips := gov.Curve.UIPSAt(fmax)
	meanSvc := gov.Tail.MeanService(uips).Seconds()
	prev := time.Duration(0)
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		lambda := 8 * rho / meanSvc
		sim, err := New(Config{
			Gov:      gov,
			Policy:   Static{FreqHz: fmax},
			Balancer: NewJSQ(),
			Trace:    constTrace(lambda, 60, time.Second),
			Warmup:   5 * time.Second,
		}, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.P99 <= prev {
			t.Fatalf("p99 not increasing in load: rho=%.1f gives %v after %v", rho, res.P99, prev)
		}
		prev = res.P99
	}
}
