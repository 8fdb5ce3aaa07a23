package uncore

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCrossbarUncontendedLatency(t *testing.T) {
	x, err := NewCrossbar(4)
	if err != nil {
		t.Fatal(err)
	}
	got := x.Request(0, 100)
	if got != 100+CrossbarTraversalNs {
		t.Fatalf("uncontended delivery = %v, want %v", got, 100+CrossbarTraversalNs)
	}
}

func TestCrossbarContentionSerializes(t *testing.T) {
	x, _ := NewCrossbar(4)
	// Three simultaneous requests to the same port serialize.
	d1 := x.Request(0, 0)
	d2 := x.Request(0, 0)
	d3 := x.Request(0, 0)
	if d2 != d1+crossbarOccupancyNs || d3 != d2+crossbarOccupancyNs {
		t.Fatalf("deliveries %v %v %v should be spaced by occupancy %v", d1, d2, d3, crossbarOccupancyNs)
	}
}

func TestCrossbarDistinctPortsParallel(t *testing.T) {
	x, _ := NewCrossbar(4)
	d0 := x.Request(0, 0)
	d1 := x.Request(1, 0)
	if d0 != d1 {
		t.Fatalf("requests to distinct ports should not contend: %v vs %v", d0, d1)
	}
}

func TestCrossbarPortFreesAfterOccupancy(t *testing.T) {
	x, _ := NewCrossbar(2)
	x.Request(0, 0)
	// A request after the occupancy window sees no wait.
	d := x.Request(0, crossbarOccupancyNs+1)
	if d != crossbarOccupancyNs+1+CrossbarTraversalNs {
		t.Fatalf("late request delayed: %v", d)
	}
}

func TestCrossbarStats(t *testing.T) {
	x, _ := NewCrossbar(2)
	x.Request(0, 0)
	x.Request(0, 0) // waits crossbarOccupancyNs
	if x.Transfers() != 2 {
		t.Fatalf("transfers = %d", x.Transfers())
	}
	x.ResetStats()
	if x.Transfers() != 0 {
		t.Fatal("ResetStats should clear stats")
	}
	if d := x.Request(0, 0); d != 2*crossbarOccupancyNs+CrossbarTraversalNs {
		t.Fatalf("ResetStats should keep port state, got %v", d)
	}
}

func TestCrossbarPower25mW(t *testing.T) {
	// Paper Sec. II-C2: "consuming 25mW for a crossbar".
	if p := CrossbarPower(0); math.Abs(p-0.025) > 1e-12 {
		t.Fatalf("idle crossbar power = %v, want 25mW", p)
	}
	if CrossbarPower(1e9) <= CrossbarPower(0) {
		t.Fatal("active crossbar should burn more than idle")
	}
}

func TestCrossbarValidation(t *testing.T) {
	if _, err := NewCrossbar(0); err == nil {
		t.Fatal("0-port crossbar should be rejected")
	}
	x, _ := NewCrossbar(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range port should panic")
		}
	}()
	x.Request(2, 0)
}

func TestPeripherals5W(t *testing.T) {
	// Paper Sec. II-C2: McPAT UltraSPARC T2 I/O config "resulting in 5W".
	p := SunT2Peripherals()
	if got := p.Power(); math.Abs(got-5.0) > 0.01 {
		t.Fatalf("peripherals = %.2fW, want 5W", got)
	}
	if len(p.Components) < 3 {
		t.Fatal("expected a component-wise breakdown")
	}
}

func TestQuickCrossbarDeliveryNeverBeforeRequest(t *testing.T) {
	x, _ := NewCrossbar(4)
	now := 0.0
	err := quick.Check(func(port uint8, dt uint16) bool {
		now += float64(dt) / 100
		d := x.Request(int(port)%4, now)
		return d >= now+CrossbarTraversalNs
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrossbarPortNeverDoubleBooked(t *testing.T) {
	// Deliveries on one port must be spaced by at least crossbarOccupancyNs.
	x, _ := NewCrossbar(1)
	last := math.Inf(-1)
	now := 0.0
	err := quick.Check(func(dt uint8) bool {
		now += float64(dt) / 50
		d := x.Request(0, now)
		ok := d-last >= crossbarOccupancyNs-1e-9 || last == math.Inf(-1)
		last = d
		return ok
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
