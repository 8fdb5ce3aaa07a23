package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"ntcsim/internal/rng"
)

func TestProfilesWellFormed(t *testing.T) {
	for _, p := range All() {
		if p.Name == "" {
			t.Fatal("profile without name")
		}
		sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac
		if sum <= 0 || sum >= 1 {
			t.Errorf("%s: mix fractions sum to %v, must be in (0,1)", p.Name, sum)
		}
		if p.HotBytes >= p.DataBytes {
			t.Errorf("%s: hot region must be smaller than footprint", p.Name)
		}
		if p.DepGeomP <= 0 || p.DepGeomP > 1 {
			t.Errorf("%s: DepGeomP %v out of range", p.Name, p.DepGeomP)
		}
		if p.OSFrac < 0 || p.OSFrac > 0.5 {
			t.Errorf("%s: OSFrac %v out of range", p.Name, p.OSFrac)
		}
		// All footprints must fit the per-core 16GB window layout.
		if p.DataBytes > 12<<30 {
			t.Errorf("%s: data footprint exceeds window", p.Name)
		}
		if p.CodeBytes > 1<<30 {
			t.Errorf("%s: code footprint exceeds window", p.Name)
		}
	}
}

func TestPaperQoSLimits(t *testing.T) {
	// Sec. V-A: 20ms, 200ms, 200ms, 100ms.
	wantMs := map[string]int64{
		"data-serving":    20,
		"web-search":      200,
		"web-serving":     200,
		"media-streaming": 100,
	}
	for _, p := range ScaleOutProfiles() {
		if got := p.QoSLimit.Milliseconds(); got != wantMs[p.Name] {
			t.Errorf("%s QoS = %dms, want %dms", p.Name, got, wantMs[p.Name])
		}
		if p.Baseline99p <= 0 || p.Baseline99p >= p.QoSLimit {
			t.Errorf("%s baseline %v must be positive and below QoS %v",
				p.Name, p.Baseline99p, p.QoSLimit)
		}
	}
}

func TestVMFootprints(t *testing.T) {
	// Sec. III-B2: 100MB and 700MB provisioning.
	if got := VMLowMem().DataBytes; got != 100<<20 {
		t.Fatalf("low-mem footprint = %d, want 100MB", got)
	}
	if got := VMHighMem().DataBytes; got != 700<<20 {
		t.Fatalf("high-mem footprint = %d, want 700MB", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := WebSearch()
	a := NewGenerator(NewPlan(p, 0, rng.New(7)))
	b := NewGenerator(NewPlan(p, 0, rng.New(7)))
	var ia, ib Instr
	for i := 0; i < 5000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("trace diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

// TestNextWarmMatchesNext checks the functional-warming path against Next
// for every profile: n NextWarm calls plus SkipDeps(n) must leave the
// generator in Next's state, with every field but DepDist equal on the way.
func TestNextWarmMatchesNext(t *testing.T) {
	serial := WebSearch()
	serial.Name, serial.DepGeomP = "serial", 1 // dependency draws consume nothing
	profiles := append(append(All(), Extended()...), Bubble(), serial)
	for _, p := range profiles {
		for _, n := range []int{1, 77, 8192, 50000} {
			ref := NewGenerator(NewPlan(p, 1, rng.New(41)))
			warm := NewGenerator(NewPlan(p, 1, rng.New(41)))
			var a, b Instr
			for i := 0; i < n; i++ {
				ref.Next(&a)
				warm.NextWarm(&b)
				a.DepDist = 0
				if a != b {
					t.Fatalf("%s n=%d: instruction %d: Next %+v, NextWarm %+v", p.Name, n, i, a, b)
				}
			}
			warm.SkipDeps(uint64(n))
			if !reflect.DeepEqual(ref, warm) {
				t.Fatalf("%s n=%d: state after Next %+v, after NextWarm+SkipDeps %+v", p.Name, n, ref, warm)
			}
			ref.Next(&a)
			warm.Next(&b)
			if a != b {
				t.Fatalf("%s n=%d: next instruction differs: %+v vs %+v", p.Name, n, a, b)
			}
		}
	}
}

// TestPlanSharedByGenerators checks that a Plan is immutable: a
// generator built from a plan another generator has advanced produces the
// trace of one built from a fresh plan.
func TestPlanSharedByGenerators(t *testing.T) {
	p := WebServing()
	pl := NewPlan(p, 2, rng.New(5))
	used := NewGenerator(pl)
	var a, b Instr
	for i := 0; i < 10000; i++ {
		used.Next(&a)
	}
	g, ref := NewGenerator(pl), NewGenerator(NewPlan(p, 2, rng.New(5)))
	for i := 0; i < 20000; i++ {
		g.Next(&a)
		ref.Next(&b)
		if a != b {
			t.Fatalf("instruction %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorCoresDiffer(t *testing.T) {
	p := WebSearch()
	a := NewGenerator(NewPlan(p, 0, rng.New(7)))
	b := NewGenerator(NewPlan(p, 1, rng.New(7)))
	var ia, ib Instr
	same := 0
	for i := 0; i < 1000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("cores produced %d/1000 identical instructions", same)
	}
}

func TestMixFractionsRealized(t *testing.T) {
	for _, p := range All() {
		g := NewGenerator(NewPlan(p, 0, rng.New(11)))
		var in Instr
		counts := map[Kind]int{}
		const n = 200000
		for i := 0; i < n; i++ {
			g.Next(&in)
			counts[in.Kind]++
		}
		check := func(kind Kind, want float64) {
			got := float64(counts[kind]) / n
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: %v fraction = %.3f, want %.3f", p.Name, kind, got, want)
			}
		}
		check(Load, p.LoadFrac)
		check(Store, p.StoreFrac)
		check(Branch, p.BranchFrac)
		check(FP, p.FPFrac)
	}
}

func TestOSFractionRealized(t *testing.T) {
	for _, p := range []*Profile{DataServing(), WebServing(), VMHighMem()} {
		g := NewGenerator(NewPlan(p, 0, rng.New(13)))
		var in Instr
		osCount := 0
		const n = 2000000
		for i := 0; i < n; i++ {
			g.Next(&in)
			if in.OS {
				osCount++
			}
		}
		got := float64(osCount) / n
		if math.Abs(got-p.OSFrac) > 0.05 {
			t.Errorf("%s: OS fraction = %.3f, want %.3f", p.Name, got, p.OSFrac)
		}
	}
}

func TestAddressesStayInCoreWindow(t *testing.T) {
	for coreID := 0; coreID < 4; coreID++ {
		g := NewGenerator(NewPlan(DataServing(), coreID, rng.New(17)))
		lo := uint64(coreID) << coreWindowBits
		hi := uint64(coreID+1) << coreWindowBits
		var in Instr
		for i := 0; i < 50000; i++ {
			g.Next(&in)
			if in.PC < lo || in.PC >= hi {
				t.Fatalf("core %d PC %x outside window [%x,%x)", coreID, in.PC, lo, hi)
			}
			if in.Kind == Load || in.Kind == Store {
				if in.Addr < lo || in.Addr >= hi {
					t.Fatalf("core %d addr %x outside window", coreID, in.Addr)
				}
			}
		}
	}
}

func TestDataAddressesWithinFootprint(t *testing.T) {
	p := VMLowMem()
	g := NewGenerator(NewPlan(p, 0, rng.New(19)))
	var in Instr
	for i := 0; i < 100000; i++ {
		g.Next(&in)
		if (in.Kind == Load || in.Kind == Store) && !in.OS {
			if in.Addr >= p.DataBytes {
				t.Fatalf("user data address %x beyond footprint %x", in.Addr, p.DataBytes)
			}
		}
	}
}

func TestBranchOutcomesMostlyPredictable(t *testing.T) {
	// Beta-distributed biases with parameters < 1 produce mostly strongly
	// biased branches: a per-site majority predictor should be right most
	// of the time (scale-out apps see ~5-10% mispredicts, not 50%).
	p := WebSearch()
	g := NewGenerator(NewPlan(p, 0, rng.New(23)))
	var in Instr
	taken := map[int32][2]int{}
	var instrs []Instr
	for i := 0; i < 400000; i++ {
		g.Next(&in)
		if in.Kind == Branch {
			c := taken[in.BranchID]
			if in.Taken {
				c[1]++
			} else {
				c[0]++
			}
			taken[in.BranchID] = c
			instrs = append(instrs, in)
		}
	}
	correct, total := 0, 0
	for _, in := range instrs {
		c := taken[in.BranchID]
		maj := c[1] > c[0]
		if maj == in.Taken {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.80 {
		t.Fatalf("oracle majority accuracy = %.3f, branches too random", acc)
	}
}

func TestDepDistDistribution(t *testing.T) {
	p := MediaStreaming() // lowest DepGeomP => longest distances
	g := NewGenerator(NewPlan(p, 0, rng.New(29)))
	var in Instr
	sum, n := 0, 0
	for i := 0; i < 100000; i++ {
		g.Next(&in)
		if in.DepDist > 0 {
			sum += in.DepDist
			n++
		}
		if in.DepDist < 0 || in.DepDist > 64 {
			t.Fatalf("DepDist %d out of [0,64]", in.DepDist)
		}
	}
	mean := float64(sum) / float64(n)
	if mean < 2 {
		t.Fatalf("high-ILP workload mean dep distance = %v, want > 2", mean)
	}
}

func TestTierFractionsRealized(t *testing.T) {
	// The stack/hot tier fractions must be realized in the address stream.
	p := WebSearch()
	g := NewGenerator(NewPlan(p, 0, rng.New(31)))
	var in Instr
	stack, hot, total := 0, 0, 0
	for i := 0; i < 300000; i++ {
		g.Next(&in)
		if (in.Kind == Load || in.Kind == Store) && !in.OS {
			total++
			switch {
			case in.Addr < p.StackBytes:
				stack++
			case in.Addr < p.StackBytes+p.HotBytes:
				hot++
			}
		}
	}
	if frac := float64(stack) / float64(total); math.Abs(frac-p.StackFrac) > 0.03 {
		t.Fatalf("stack fraction = %.3f, want ~%.2f", frac, p.StackFrac)
	}
	if frac := float64(hot) / float64(total); math.Abs(frac-p.HotFrac) > 0.03 {
		t.Fatalf("hot fraction = %.3f, want ~%.2f", frac, p.HotFrac)
	}
}

func TestQuickGeneratorRobust(t *testing.T) {
	// Any seed: the generator produces valid instructions.
	p := MediaStreaming()
	err := quick.Check(func(seed uint64) bool {
		g := NewGenerator(NewPlan(p, 0, rng.New(seed)))
		var in Instr
		for i := 0; i < 200; i++ {
			g.Next(&in)
			if in.Kind > Branch {
				return false
			}
			if in.Kind == Branch && (in.BranchID < 0 || int(in.BranchID) >= p.StaticBranches) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := NewGenerator(NewPlan(DataServing(), 0, rng.New(1)))
	var in Instr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}

func TestExtendedProfilesWellFormed(t *testing.T) {
	for _, p := range Extended() {
		sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac
		if sum <= 0 || sum >= 1 {
			t.Errorf("%s: mix sums to %v", p.Name, sum)
		}
		// Extended workloads must not leak into the paper's set.
		for _, q := range All() {
			if q.Name == p.Name {
				t.Errorf("%s: must not be in All()", p.Name)
			}
		}
		// Generators must work.
		g := NewGenerator(NewPlan(p, 0, rng.New(3)))
		var in Instr
		for i := 0; i < 10000; i++ {
			g.Next(&in)
		}
	}
}

func TestGraphAnalyticsMostSerialized(t *testing.T) {
	// Pointer chasing: graph-analytics has the tightest dependency chains
	// of the extended set.
	if GraphAnalytics().DepGeomP <= DataAnalytics().DepGeomP {
		t.Fatal("graph traversal should be more serialized than map-reduce")
	}
}
