package thermal

import (
	"math"
	"testing"

	"ntcsim/internal/power"
	"ntcsim/internal/tech"
)

func TestJunctionTempLinearInPower(t *testing.T) {
	m := Default()
	if got := m.JunctionTemp(0); got != m.AmbientC {
		t.Fatalf("idle junction = %v, want ambient", got)
	}
	if got := m.JunctionTemp(100); math.Abs(got-(30+45)) > 1e-9 {
		t.Fatalf("100W junction = %v, want 75C", got)
	}
}

func TestBudgetIsMinOfTDPAndThermal(t *testing.T) {
	m := Default()
	// Default: thermal limit = 60/0.45 = 133W > TDP 100W -> TDP binds.
	if m.BudgetW() != m.TDPW {
		t.Fatalf("budget = %v, want TDP-bound", m.BudgetW())
	}
	m.RthJAC = 1.0 // weak heatsink: thermal limit 60W < TDP
	if m.BudgetW() != m.ThermalLimitW() {
		t.Fatal("budget should become thermal-bound")
	}
}

func TestNTCIsNotPowerBound(t *testing.T) {
	// Paper Sec. V-C: at near-threshold operation the server is
	// energy-bound, not power/thermal bound — all 36 cores fit easily.
	m := Default()
	cm := power.NewA57(tech.FDSOI28())
	pts, err := DarkSilicon(m, cm, 23, 36, []float64{0.3e9, 0.5e9, 1.0e9})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.ActiveCores != 36 {
			t.Fatalf("at %.1f GHz only %d/36 cores fit — NT region must not be power-bound",
				p.FreqHz/1e9, p.ActiveCores)
		}
		if p.DarkFraction != 0 {
			t.Fatal("no dark silicon expected in the NT region")
		}
	}
}

func TestDarkSiliconAtHighFrequency(t *testing.T) {
	// Push the cores to the top of the range: the 100W budget cannot feed
	// all 36 cores and dark silicon appears.
	m := Default()
	cm := power.NewA57(tech.FDSOI28())
	pts, err := DarkSilicon(m, cm, 23, 36, []float64{3.2e9})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.ActiveCores >= 36 {
		t.Fatalf("at 3.2GHz all 36 cores (%.1fW each) cannot fit %vW", p.PerCoreW, p.BudgetW)
	}
	if p.ActiveCores == 0 {
		t.Fatal("some cores must still run")
	}
	if p.DarkFraction <= 0 || p.DarkFraction >= 1 {
		t.Fatalf("dark fraction = %v", p.DarkFraction)
	}
}

func TestDarkSiliconMonotoneInFrequency(t *testing.T) {
	m := Default()
	cm := power.NewA57(tech.FDSOI28())
	freqs := []float64{0.5e9, 1.0e9, 2.0e9, 2.5e9, 3.0e9, 3.2e9}
	pts, err := DarkSilicon(m, cm, 23, 36, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ActiveCores > pts[i-1].ActiveCores {
			t.Fatal("higher frequency can never allow more active cores")
		}
	}
}

func TestDarkSiliconUnreachableFrequency(t *testing.T) {
	m := Default()
	cm := power.NewA57(tech.FDSOI28())
	if _, err := DarkSilicon(m, cm, 23, 36, []float64{50e9}); err == nil {
		t.Fatal("unreachable frequency should error")
	}
}

func TestLeakageGrowsWithTemperature(t *testing.T) {
	te := tech.FDSOI28()
	cold := te.LeakageFactorAt(1.0, 0, 300)
	hot := te.LeakageFactorAt(1.0, 0, 360)
	if hot <= cold {
		t.Fatal("leakage must grow with temperature")
	}
	if hot/cold < 1.5 {
		t.Fatalf("60K of heating should raise leakage substantially, got %.2fx", hot/cold)
	}
}
