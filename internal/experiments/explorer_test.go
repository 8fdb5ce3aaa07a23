package experiments

import (
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"ntcsim/internal/core"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/sim"
	"ntcsim/internal/sram"
	"ntcsim/internal/uncore"
	"ntcsim/internal/workload"
)

// TestParamsNewExplorer pins the single construction path: every Params
// input lands on the explorer, warmup overrides land on top of the
// selected fidelity's defaults rather than under them, and every Env seam
// arrives by identity.
func TestParamsNewExplorer(t *testing.T) {
	quick := core.NewExplorer()
	paper := core.NewExplorer()
	paper.PaperFidelity()
	if paper.WarmInstr == quick.WarmInstr || paper.SettleCycles == quick.SettleCycles {
		t.Fatal("paper and quick fidelity share warmup defaults; the table below cannot tell them apart")
	}

	cases := []struct {
		name   string
		p      Params
		want   *core.Explorer // fidelity whose sampling windows must apply
		warm   uint64
		settle int64
		seed   uint64
	}{
		{"zero", Params{}, quick, quick.WarmInstr, quick.SettleCycles, DefaultSeed},
		{"quick", Params{Fidelity: "quick", Seed: 7}, quick, quick.WarmInstr, quick.SettleCycles, 7},
		{"paper", Params{Fidelity: "paper"}, paper, paper.WarmInstr, paper.SettleCycles, DefaultSeed},
		{"paper overrides", Params{Fidelity: "paper", Seed: 9, WarmInstr: 200_000, SettleCycles: 10_000},
			paper, 200_000, 10_000, 9},
		{"paper warm only", Params{Fidelity: "paper", WarmInstr: 123}, paper, 123, paper.SettleCycles, DefaultSeed},
		{"quick settle only", Params{SettleCycles: 77}, quick, quick.WarmInstr, 77, DefaultSeed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.p.NewExplorer(Env{})
			if e.WarmInstr != tc.warm || e.SettleCycles != tc.settle {
				t.Errorf("warmup = (%d, %d), want (%d, %d)", e.WarmInstr, e.SettleCycles, tc.warm, tc.settle)
			}
			if e.Platform.Cluster.Seed != tc.seed {
				t.Errorf("Platform.Cluster.Seed = %#x, want %#x", e.Platform.Cluster.Seed, tc.seed)
			}
			// Paper fidelity differs per workload (data serving gets longer
			// windows), so every profile is checked.
			for _, prof := range workload.All() {
				got, want := e.SamplingFor(prof), tc.want.SamplingFor(prof)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s sampling = %+v, want %+v", prof.Name, got, want)
				}
			}
		})
	}

	t.Run("seams", func(t *testing.T) {
		env := Env{Seams: core.Seams{
			Jobs:      3,
			Obs:       obs.NewRegistry(),
			Tracer:    obs.NewTracer(io.Discard),
			Progress:  obs.NewProgress(nil),
			Telemetry: timeseries.NewSampler(),
			Memo:      core.NewSweepMemo(),
		}}
		// A seam added to core.Seams must be added to this fixture too.
		sv := reflect.ValueOf(env.Seams)
		for i := 0; i < sv.NumField(); i++ {
			if sv.Field(i).IsZero() {
				t.Fatalf("fixture leaves seam %s unset", sv.Type().Field(i).Name)
			}
		}
		e := Params{}.NewExplorer(env)
		if e.Seams != env.Seams {
			t.Fatalf("seams not carried by identity: got %+v, want %+v", e.Seams, env.Seams)
		}
	})
}

// TestEightCoreVariantPricesWhatItSimulates checks the cluster-size
// ablation's 8-core variant: its eight 1MB LLC banks give the 4-core
// cluster's LLC latency, and the uncore model prices the 8MB of LLC the
// simulator runs per cluster.
func TestEightCoreVariantPricesWhatItSimulates(t *testing.T) {
	e4, e8 := Params{}.NewExplorer(Env{}), Params{}.eightCoreExplorer(Env{})
	if got := e8.Platform.TotalCores(); got != 32 {
		t.Fatalf("8-core variant has %d cores, want 4 clusters x 8", got)
	}
	lat4, lat8 := e4.Platform.Cluster.LLC.AccessLatency(), e8.Platform.Cluster.LLC.AccessLatency()
	if lat4 != 4*time.Nanosecond || lat8 != lat4 {
		t.Fatalf("LLC latency 4-core %v, 8-core %v; want 4ns for both", lat4, lat8)
	}
	llc := sram.DefaultLLCConfig()
	llc.CapacityBytes = 8 << 20
	spec := e8.Platform
	want := 4*(llc.LeakagePower()+uncore.CrossbarPower(0)) + spec.Peripherals.Power()
	llcW, xbarW, ioW := spec.UncorePower(0, 0, 0)
	if got := llcW + xbarW + ioW; math.Abs(got-want) > 1e-9 {
		t.Fatalf("idle uncore %.4fW, want %.4fW (8MB of LLC leakage per cluster)", got, want)
	}
	if _, err := sim.NewCluster(spec.Cluster, workload.WebSearch(), 1e9); err != nil {
		t.Fatalf("simulating the variant: %v", err)
	}
}
