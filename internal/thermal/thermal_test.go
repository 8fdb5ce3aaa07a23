package thermal

import (
	"math"
	"testing"
	"testing/quick"
	"time"

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

func TestTransientApproachesSteadyState(t *testing.T) {
	m := Default()
	start := m.Transient(20, 80, 0)
	if math.Abs(start-m.JunctionTemp(20)) > 1e-9 {
		t.Fatalf("t=0 should be the initial temperature, got %v", start)
	}
	late := m.Transient(20, 80, 10*m.TimeConstant)
	if math.Abs(late-m.JunctionTemp(80)) > 0.01 {
		t.Fatalf("t>>tau should reach steady state, got %v", late)
	}
	mid := m.Transient(20, 80, m.TimeConstant)
	if mid <= start || mid >= late {
		t.Fatalf("transient not monotone: %v %v %v", start, mid, late)
	}
}

func TestTimeToLimit(t *testing.T) {
	m := Default()
	// Sustainable step: never hits the limit.
	if _, hits := m.TimeToLimit(10, 50); hits {
		t.Fatal("50W is sustainable (52.5C)")
	}
	// Unsustainable step from cool state: finite positive time.
	d, hits := m.TimeToLimit(10, 200)
	if !hits || d <= 0 {
		t.Fatalf("200W must overheat eventually: %v %v", d, hits)
	}
	// Already at the limit.
	if d, hits := m.TimeToLimit(300, 400); !hits || d != 0 {
		t.Fatalf("starting hot should hit immediately: %v %v", d, hits)
	}
	// A bigger overshoot hits the limit sooner.
	d2, _ := m.TimeToLimit(10, 400)
	if d2 >= d {
		t.Fatalf("400W (%v) should overheat faster than 200W (%v)", d2, d)
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

func TestQuickTransientBounded(t *testing.T) {
	m := Default()
	err := quick.Check(func(p0x, p1x uint8, tx uint16) bool {
		p0 := float64(p0x) // 0..255 W
		p1 := float64(p1x)
		d := time.Duration(tx) * time.Millisecond * 100
		tj := m.Transient(p0, p1, d)
		lo := math.Min(m.JunctionTemp(p0), m.JunctionTemp(p1))
		hi := math.Max(m.JunctionTemp(p0), m.JunctionTemp(p1))
		return tj >= lo-1e-9 && tj <= hi+1e-9
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
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
