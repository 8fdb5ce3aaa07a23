package qos

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ntcsim/internal/workload"
)

func TestScaledLatencyInverseInThroughput(t *testing.T) {
	base := 10 * time.Millisecond
	// Half the throughput -> double the latency.
	if got := ScaledLatency(base, 2e9, 1e9); got != 20*time.Millisecond {
		t.Fatalf("got %v, want 20ms", got)
	}
	// Same throughput -> same latency.
	if got := ScaledLatency(base, 2e9, 2e9); got != base {
		t.Fatalf("got %v, want %v", got, base)
	}
	// More throughput -> lower latency.
	if got := ScaledLatency(base, 2e9, 4e9); got != 5*time.Millisecond {
		t.Fatalf("got %v, want 5ms", got)
	}
}

func TestScaledLatencyZeroThroughput(t *testing.T) {
	if got := ScaledLatency(time.Millisecond, 2e9, 0); got < time.Hour {
		t.Fatalf("zero throughput should give effectively infinite latency, got %v", got)
	}
}

func TestNormalizedAtBaseline(t *testing.T) {
	p := workload.DataServing()
	// At the baseline throughput, normalized latency = baseline/QoS.
	want := float64(p.Baseline99p) / float64(p.QoSLimit)
	got := Normalized(p, 1e9, 1e9)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("normalized = %v, want %v", got, want)
	}
	if got >= 1 {
		t.Fatal("baseline must meet QoS")
	}
}

func TestMeetsBoundary(t *testing.T) {
	p := workload.WebSearch()
	// Find the throughput ratio at which latency exactly hits QoS.
	ratio := float64(p.Baseline99p) / float64(p.QoSLimit)
	if !Meets(p, 1e9, 1e9*ratio*1.001) {
		t.Fatal("just above the boundary should meet QoS")
	}
	if Meets(p, 1e9, 1e9*ratio*0.999) {
		t.Fatal("just below the boundary should violate QoS")
	}
}

func TestNormalizedPanicsForVM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for VM profile")
		}
	}()
	Normalized(workload.VMLowMem(), 1e9, 1e9)
}

func TestDegradation(t *testing.T) {
	if got := Degradation(2e9, 1e9); got != 2 {
		t.Fatalf("got %v, want 2", got)
	}
	if got := Degradation(2e9, 2e9); got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
	if !MeetsDegradation(2e9, 1e9, DegradationStrict) {
		t.Fatal("2x slowdown meets the 2x limit")
	}
	if MeetsDegradation(2e9, 0.4e9, DegradationRelaxed) {
		t.Fatal("5x slowdown violates the 4x limit")
	}
}

func TestPaperDegradationConstants(t *testing.T) {
	// Sec. III-B2: "the minimum degradation observed in their production
	// data centers is 2x, while the maximum ... 4x".
	if DegradationStrict != 2.0 || DegradationRelaxed != 4.0 {
		t.Fatal("degradation limits must match the paper")
	}
}

func TestRequirementScaleOut(t *testing.T) {
	r := NewRequirement(workload.MediaStreaming())
	if !r.Satisfied(1e9, 1e9) {
		t.Fatal("baseline throughput should satisfy QoS")
	}
	if r.Satisfied(1e9, 1e7) {
		t.Fatal("100x slowdown should violate QoS")
	}
	if r.Metric(1e9, 1e9) <= 0 {
		t.Fatal("metric should be positive")
	}
}

func TestRequirementVirtualized(t *testing.T) {
	r := NewRequirement(workload.VMHighMem())
	if !r.Satisfied(4e9, 1e9) {
		t.Fatal("exactly 4x degradation satisfies the relaxed limit")
	}
	if r.Satisfied(4.1e9, 1e9) {
		t.Fatal("beyond 4x should fail")
	}
	if got := r.Metric(2e9, 1e9); got != 2 {
		t.Fatalf("metric = %v, want degradation 2", got)
	}
}

func TestQuickLatencyMonotoneInThroughput(t *testing.T) {
	p := workload.WebServing()
	err := quick.Check(func(a, b uint32) bool {
		u1 := 1e6 + float64(a)
		u2 := 1e6 + float64(b)
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		// Higher throughput can never increase normalized latency.
		return Normalized(p, 2e9, u2) <= Normalized(p, 2e9, u1)+1e-12
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}
