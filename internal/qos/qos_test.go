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
	if Metric(p, 1e9, 1e9*ratio*1.001) > Limit(p) {
		t.Fatal("just above the boundary should meet QoS")
	}
	if Metric(p, 1e9, 1e9*ratio*0.999) <= Limit(p) {
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
	if got := Degradation(2e9, 0); got < 1e18 {
		t.Fatalf("zero throughput degrades by %v, want effectively infinite", got)
	}
}

func TestPaperDegradationConstants(t *testing.T) {
	// Sec. III-B2: "the minimum degradation observed in their production
	// data centers is 2x, while the maximum ... 4x".
	if DegradationStrict != 2.0 || DegradationRelaxed != 4.0 {
		t.Fatal("degradation limits must match the paper")
	}
}

// qosCase is one throughput point and the QoS verdict Metric and Limit
// must give it.
type qosCase struct {
	name          string
	base, uips    float64
	wantMetric    float64 // 0: only the verdict is checked
	wantWithinQoS bool
}

func checkQoSCases(t *testing.T, p *workload.Profile, cases []qosCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := Metric(p, c.base, c.uips)
			if c.wantMetric != 0 && math.Abs(m-c.wantMetric) > 1e-12 {
				t.Fatalf("metric = %v, want %v", m, c.wantMetric)
			}
			if got := m <= Limit(p); got != c.wantWithinQoS {
				t.Fatalf("metric %v within limit %v: %v, want %v", m, Limit(p), got, c.wantWithinQoS)
			}
		})
	}
}

// TestRequirementScaleOut: for scale-out workloads Metric is the
// normalized 99th-percentile latency and Limit is 1.
func TestRequirementScaleOut(t *testing.T) {
	ms := workload.MediaStreaming()
	if Limit(ms) != 1 {
		t.Fatalf("scale-out limit = %v, want 1", Limit(ms))
	}
	checkQoSCases(t, ms, []qosCase{
		{"at the baseline", 1e9, 1e9, float64(ms.Baseline99p) / float64(ms.QoSLimit), true},
		{"100x slower", 1e9, 1e7, 0, false},
	})
}

// TestRequirementVirtualized: for VMs Metric is the throughput
// degradation and Limit is the relaxed 4x bound.
func TestRequirementVirtualized(t *testing.T) {
	vm := workload.VMHighMem()
	if Limit(vm) != DegradationRelaxed {
		t.Fatalf("VM limit = %v, want %v", Limit(vm), DegradationRelaxed)
	}
	checkQoSCases(t, vm, []qosCase{
		{"at the baseline", 2e9, 2e9, 1, true},
		{"2x slower", 2e9, 1e9, 2, true},
		{"exactly 4x slower", 4e9, 1e9, 4, true},
		{"beyond 4x", 4.1e9, 1e9, 0, false},
	})
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
