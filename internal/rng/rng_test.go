package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Derive("cores")
	b := parent.Derive("memory")
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different labels should differ")
	}
	// Derive must not consume parent state.
	p1 := New(7)
	p1.Derive("x")
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Derive consumed parent state")
	}
}

func TestDeriveSameLabelSameStream(t *testing.T) {
	p := New(9)
	a := p.Derive("l1d")
	b := p.Derive("l1d")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same label should derive identical streams")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUint64nRange(t *testing.T) {
	s := New(5)
	err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := s.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniform(t *testing.T) {
	s := New(13)
	const buckets = 10
	counts := make([]int, buckets)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", p)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(19)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(23)
	const p = 0.25
	const n = 100000
	g := NewGeometric(p)
	sum := 0
	for i := 0; i < n; i++ {
		k := s.Geometric(g)
		if k < 1 {
			t.Fatalf("Geometric returned %d < 1", k)
		}
		sum += k
	}
	mean := float64(sum) / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("Geometric mean = %v, want ~%v", mean, 1/p)
	}
}

func TestGeometricPOne(t *testing.T) {
	s := New(29)
	g := NewGeometric(1)
	for i := 0; i < 100; i++ {
		if k := s.Geometric(g); k != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", k)
		}
	}
	if s.state != 29 {
		t.Fatal("Geometric(1) consumed the stream")
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(31)
	const mean = 40.0
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := s.Exponential(mean)
		if x < 0 {
			t.Fatalf("Exponential returned negative %v", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-mean) > mean*0.02 {
		t.Fatalf("Exponential mean = %v, want ~%v", got, mean)
	}
}

func TestBetaRangeAndMean(t *testing.T) {
	s := New(41)
	const a, b = 2.0, 5.0
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := s.Beta(a, b)
		if x < 0 || x > 1 {
			t.Fatalf("Beta out of [0,1]: %v", x)
		}
		sum += x
	}
	mean := sum / n
	want := a / (a + b)
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("Beta mean = %v, want ~%v", mean, want)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(43)
	z := NewZipf(s, 100, 1.0)
	counts := make([]int, 100)
	const n = 100000
	for i := 0; i < n; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("Zipf rank out of range: %d", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf(1.0): rank 0 count %d should exceed rank 50 count %d", counts[0], counts[50])
	}
	// Rank 0 should get roughly 1/H_100 ~ 19% of draws.
	frac := float64(counts[0]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("Zipf rank-0 fraction = %v, want ~0.19", frac)
	}
}

func TestZipfThetaZeroUniform(t *testing.T) {
	s := New(47)
	z := NewZipf(s, 10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Fatalf("Zipf(0) bucket %d = %d, want ~%d", i, c, n/10)
		}
	}
}

func TestZipfCoversAllRanks(t *testing.T) {
	s := New(53)
	z := NewZipf(s, 5, 0.5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		seen[z.Next()] = true
	}
	if len(seen) != 5 {
		t.Fatalf("Zipf over 5 ranks covered only %d ranks", len(seen))
	}
}

func TestQuickFloat64AlwaysInRange(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickGeometricAtLeastOne(t *testing.T) {
	err := quick.Check(func(seed uint64, pRaw uint8) bool {
		p := (float64(pRaw%99) + 1) / 100 // p in [0.01, 0.99]
		g := NewGeometric(p)
		s := New(seed)
		for i := 0; i < 50; i++ {
			if s.Geometric(g) < 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1<<16, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

func TestSplitDeterministicAndOrderIndependent(t *testing.T) {
	s := New(0x5eed)
	a := s.Split(3)
	// Splitting other indices first, or drawing from other substreams,
	// must not change what index 3 yields.
	s.Split(0).Uint64()
	s.Split(7)
	b := s.Split(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Split(3) depends on split order at draw %d", i)
		}
	}
}

func TestSplitDoesNotConsumeParentState(t *testing.T) {
	a, b := New(42), New(42)
	a.Split(1)
	a.Split(2)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split must not advance the parent stream")
		}
	}
}

func TestSplitAdjacentIndicesDecorrelated(t *testing.T) {
	s := New(1)
	// Adjacent and distant indices must all give distinct streams with
	// roughly unbiased bits.
	seen := map[uint64]bool{}
	for i := uint64(0); i < 64; i++ {
		v := s.Split(i).Uint64()
		if seen[v] {
			t.Fatalf("index %d collides with an earlier substream", i)
		}
		seen[v] = true
	}
	// Bitwise balance across the first draw of 4096 adjacent substreams.
	ones := 0
	const n = 4096
	for i := uint64(0); i < n; i++ {
		v := s.Split(i).Uint64()
		for ; v != 0; v &= v - 1 {
			ones++
		}
	}
	mean := float64(ones) / (n * 64)
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("first-draw bit density %.4f, want ~0.5", mean)
	}
}

func TestSplitDiffersFromParentAndSiblings(t *testing.T) {
	s := New(0xabc)
	parent := New(0xabc)
	child := s.Split(0)
	same := 0
	for i := 0; i < 64; i++ {
		if child.Uint64() == parent.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatal("substream 0 must not replay the parent stream")
	}
}
