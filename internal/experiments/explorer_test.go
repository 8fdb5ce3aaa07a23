package experiments

import (
	"io"
	"reflect"
	"testing"

	"ntcsim/internal/core"
	"ntcsim/internal/faultfs"
	"ntcsim/internal/obs"
	"ntcsim/internal/obs/timeseries"
	"ntcsim/internal/workload"
)

// TestParamsNewExplorer pins the single construction path: every Params
// input lands on the explorer, warmup overrides land on top of the
// selected fidelity's defaults rather than under them, and every Env seam
// arrives by identity.
func TestParamsNewExplorer(t *testing.T) {
	quick, err := core.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	paper, err := core.NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
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
			e, err := tc.p.NewExplorer(Env{})
			if err != nil {
				t.Fatal(err)
			}
			if e.WarmInstr != tc.warm || e.SettleCycles != tc.settle {
				t.Errorf("warmup = (%d, %d), want (%d, %d)", e.WarmInstr, e.SettleCycles, tc.warm, tc.settle)
			}
			if e.Sim.Seed != tc.seed {
				t.Errorf("Sim.Seed = %#x, want %#x", e.Sim.Seed, tc.seed)
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
		warned := false
		env := Env{Seams: core.Seams{
			Jobs:          3,
			CheckpointDir: "ckpt",
			FS:            faultfs.NewInjector(faultfs.OS),
			Warnf:         func(string, ...any) { warned = true },
			Obs:           obs.NewRegistry(),
			Tracer:        obs.NewTracer(io.Discard),
			Progress:      obs.NewProgress(nil),
			Telemetry:     timeseries.NewSampler(),
			Memo:          core.NewSweepMemo(),
		}}
		// A seam added to core.Seams must be added to this fixture too.
		sv := reflect.ValueOf(env.Seams)
		for i := 0; i < sv.NumField(); i++ {
			if sv.Field(i).IsZero() {
				t.Fatalf("fixture leaves seam %s unset", sv.Type().Field(i).Name)
			}
		}
		e, err := Params{}.NewExplorer(env)
		if err != nil {
			t.Fatal(err)
		}
		if e.Jobs != env.Jobs || e.CheckpointDir != env.CheckpointDir || e.FS != env.FS ||
			e.Obs != env.Obs || e.Tracer != env.Tracer || e.Progress != env.Progress ||
			e.Telemetry != env.Telemetry || e.Memo != env.Memo {
			t.Fatalf("seams not carried by identity: got %+v, want %+v", e.Seams, env.Seams)
		}
		e.Warnf("probe")
		if !warned {
			t.Fatal("Warnf seam not carried")
		}
	})
}
