package rng

import (
	"math"
	"sync"
	"testing"
)

// refGeometric is the reference geometric draw for the 53-bit uniform m:
// the inverse-CDF formula, with log(1-p) evaluated per draw.
func refGeometric(p float64, m uint64) int {
	if p >= 1 {
		return 1
	}
	u := float64(m) / (1 << 53)
	// Inverse CDF; u in [0,1) keeps the argument to Log positive.
	k := int(math.Floor(math.Log(1-u)/math.Log(1-p))) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// refZipfRank is the reference Zipf draw: a binary search over the whole
// CDF for the first entry >= u.
func refZipfRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

const maxM = uint64(1)<<53 - 1

// clampM saturates m+delta into [0, 2^53), for m <= 2^53.
func clampM(m uint64, delta int64) uint64 {
	if delta < 0 && uint64(-delta) > m {
		return 0
	}
	return min(uint64(int64(m)+delta), maxM)
}

// checkGeometric compares the sampler for p against the reference formula
// exhaustively within ±(band+16) of every threshold, at both edges of
// every guide bucket, and over draws stream draws.
func checkGeometric(t *testing.T, p float64, draws int) {
	t.Helper()
	g := NewGeometric(p)
	check := func(m uint64) {
		if got, want := g.draw(m), refGeometric(p, m); got != want {
			t.Fatalf("p=%v m=%d: sampler %d, reference %d", p, m, got, want)
		}
	}
	if !g.one && g.logQ < 0 {
		thr, band := g.thresholds()
		reach := int64(band) + 16
		for k := 1; k <= geomMaxK; k++ {
			if thr[k] == thr[k-1] {
				continue // collapsed at the top of the range
			}
			for d := -reach; d <= reach; d++ {
				check(clampM(thr[k], d))
			}
		}
		for j := range g.guide {
			first := uint64(j) << geomGuideShift
			check(first)
			check(first + 1<<geomGuideShift - 1)
		}
	}
	a, b := New(math.Float64bits(p)), New(math.Float64bits(p))
	for i := 0; i < draws; i++ {
		got := a.Geometric(g)
		want := 1
		if p < 1 {
			want = refGeometric(p, b.Uint64()>>11)
		}
		if got != want {
			t.Fatalf("p=%v draw %d: sampler %d, reference %d", p, i, got, want)
		}
	}
	if a.state != b.state {
		t.Fatalf("p=%v: sampler and reference consumed different stream lengths", p)
	}
}

// checkZipf compares the (n, theta) sampler against the whole-table binary
// search at both edges of every guide bucket and within ±8 of every CDF
// entry.
func checkZipf(t *testing.T, n int, theta float64) {
	t.Helper()
	tb := NewZipf(New(0), n, theta).t
	check := func(m uint64) {
		u := float64(m) / (1 << 53)
		if got, want := tb.rank(m), refZipfRank(tb.cdf, u); got != want {
			t.Fatalf("n=%d theta=%v m=%d: sampler %d, reference %d", n, theta, m, got, want)
		}
	}
	buckets := uint64(len(tb.guide) - 1)
	for j := uint64(0); j < buckets; j++ {
		first := j << tb.shift
		check(first)
		check(first + 1<<tb.shift - 1)
	}
	for _, c := range tb.cdf {
		m := uint64(math.Min(c*(1<<53), float64(maxM)))
		for d := int64(-8); d <= 8; d++ {
			check(clampM(m, d))
		}
	}
}

func TestGeometricMatchesInverseCDFEdges(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, p := range []float64{0.05, 0.999, 1e-6, 1} {
		checkGeometric(t, p, draws)
	}
}

func TestZipfMatchesBinarySearchSmall(t *testing.T) {
	for _, c := range []struct {
		n     int
		theta float64
	}{{1, 0.9}, {2, 0}, {5, 0.5}, {10, 0}, {100, 1}, {1000, 3}, {1 << 16, 1.1}, {1<<16 + 3, 0.9}} {
		checkZipf(t, c.n, c.theta)
	}
}

// FuzzGeometricMatchesInverseCDF checks the guide against the reference
// formula for arbitrary p at an arbitrary m and at a point near one of the
// thresholds the guide was built around.
func FuzzGeometricMatchesInverseCDF(f *testing.F) {
	f.Add(0.48, uint64(12345))
	f.Add(0.0025, uint64(1)<<52)
	f.Add(0.999, maxM)
	f.Add(1e-9, uint64(0))
	f.Fuzz(func(t *testing.T, p float64, m uint64) {
		if !(p > 0) || math.IsInf(p, 0) {
			t.Skip()
		}
		g := newGeometric(p)
		if g.one {
			t.Skip() // p >= 1 draws nothing; see TestGeometricPOne
		}
		m &= maxM
		pts := []uint64{m}
		if g.logQ < 0 {
			thr, band := g.thresholds()
			span := 2*band + 33
			near := clampM(thr[1+m%geomMaxK], int64((m>>6)%span)-int64(band+16))
			pts = append(pts, near)
		}
		for _, x := range pts {
			if got, want := g.draw(x), refGeometric(p, x); got != want {
				t.Fatalf("p=%v m=%d: sampler %d, reference %d", p, x, got, want)
			}
		}
	})
}

// FuzzZipfMatchesBinarySearch checks the guided search against the
// whole-table binary search for arbitrary (n, theta) at an arbitrary m and
// next to one of the CDF entries.
func FuzzZipfMatchesBinarySearch(f *testing.F) {
	f.Add(uint16(100), 0.9, uint64(777))
	f.Add(uint16(1), 0.0, maxM)
	f.Add(uint16(4095), 1.55, uint64(1)<<40)
	f.Fuzz(func(t *testing.T, nRaw uint16, theta float64, m uint64) {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			t.Skip()
		}
		n := 1 + int(nRaw%4096)
		theta = math.Mod(math.Abs(theta), 8)
		tb := newZipfTable(n, theta)
		m &= maxM
		c := tb.cdf[int(m%uint64(n))]
		near := clampM(uint64(math.Min(c*(1<<53), float64(maxM))), int64(m>>60)-8)
		for _, x := range []uint64{m, near} {
			u := float64(x) / (1 << 53)
			if got, want := tb.rank(x), refZipfRank(tb.cdf, u); got != want {
				t.Fatalf("n=%d theta=%v m=%d: sampler %d, reference %d", n, theta, x, got, want)
			}
		}
	})
}

// FuzzThresholdMatchesBool checks the integer probability test against
// Bool for arbitrary p: at the fuzzed draw, at the draws one either side
// of p's threshold, and for the floats one ulp either side of p.
func FuzzThresholdMatchesBool(f *testing.F) {
	f.Add(0.0, uint64(0))
	f.Add(1.0, ^uint64(0))
	f.Add(math.NaN(), uint64(99))
	f.Add(math.SmallestNonzeroFloat64, uint64(0))
	f.Add(0x1p-1060, uint64(1)<<11) // subnormal
	f.Add(3*0x1p-53, uint64(3)<<11)
	f.Add(math.Nextafter(3*0x1p-53, 0), uint64(2)<<11)
	f.Add(1-0x1p-53, maxM<<11)
	f.Add(math.Nextafter(1, 0), ^uint64(0))
	f.Add(0.6, uint64(0x1234567890abcdef))
	f.Add(0.88, uint64(0xfedcba0987654321))
	f.Add(-0.5, uint64(7))
	f.Add(math.Inf(1), uint64(8))
	f.Fuzz(func(t *testing.T, p float64, v uint64) {
		for _, q := range []float64{p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1))} {
			thr := Threshold(q)
			if thr > 1<<53 {
				t.Fatalf("Threshold(%v) = %d above 2^53", q, thr)
			}
			ms := []uint64{v >> 11}
			if thr > 0 {
				ms = append(ms, thr-1)
			}
			if thr <= maxM {
				ms = append(ms, thr, min(thr+1, maxM))
			}
			for _, m := range ms {
				if got, want := m < thr, float64(m)/(1<<53) < q; got != want {
					t.Fatalf("p=%v m=%d: threshold %d says %v, Float64() < p says %v", q, m, thr, got, want)
				}
			}
			a, b := Stream{state: v}, Stream{state: v}
			if got, want := b.Below(thr), a.Bool(q); got != want || a != b {
				t.Fatalf("p=%v state=%d: Below %v, Bool %v (states %d, %d)", q, v, got, want, b.state, a.state)
			}
		}
	})
}

// FuzzUniformMatchesUint64n checks that the precomputed sampler returns
// what Uint64n returns and consumes the same draws, over several draws so
// that rejection (likely for n just above 2^63) is exercised.
func FuzzUniformMatchesUint64n(f *testing.F) {
	for _, n := range []uint64{1, 2, 3, 12, 64, 128, 2047, 8 << 10, 1 << 63, 1<<63 + 1, 1<<63 + 12345, ^uint64(0)} {
		f.Add(n, n*0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, n, seed uint64) {
		if n == 0 {
			t.Skip()
		}
		u := NewUniform(n)
		if u.N() != n {
			t.Fatalf("NewUniform(%d).N() = %d", n, u.N())
		}
		a, b := New(seed), New(seed)
		for i := 0; i < 8; i++ {
			want := a.Uint64n(n)
			if got := b.Uniform(&u); got != want || *a != *b {
				t.Fatalf("n=%d seed=%d draw %d: Uniform %d, Uint64n %d (states %d, %d)",
					n, seed, i, got, want, b.state, a.state)
			}
		}
	})
}

// TestSkipMatchesDraws checks that SkipGeometric leaves the stream where
// the skipped draws would.
func TestSkipMatchesDraws(t *testing.T) {
	for _, p := range []float64{0.4, 0.05, 1} {
		g := NewGeometric(p)
		for _, n := range []uint64{0, 1, 7, 8192} {
			a, b := New(uint64(n)+3), New(uint64(n)+3)
			for i := uint64(0); i < n; i++ {
				a.Geometric(g)
			}
			b.SkipGeometric(g, n)
			if *a != *b {
				t.Fatalf("p=%v n=%d: skipped state %d, drawn state %d", p, n, b.state, a.state)
			}
		}
	}
}

func TestSamplersDoNotAllocate(t *testing.T) {
	s := New(61)
	g := NewGeometric(0.45)
	if a := testing.AllocsPerRun(1000, func() { s.Geometric(g) }); a != 0 {
		t.Fatalf("Stream.Geometric: %v allocs per draw, want 0", a)
	}
	z := NewZipf(New(67), 1<<14, 1.3)
	if a := testing.AllocsPerRun(1000, func() { z.Next() }); a != 0 {
		t.Fatalf("Zipf.Next: %v allocs per draw, want 0", a)
	}
	thr := Threshold(0.3)
	if a := testing.AllocsPerRun(1000, func() { s.Below(thr) }); a != 0 {
		t.Fatalf("Stream.Below: %v allocs per draw, want 0", a)
	}
	for _, n := range []uint64{64, 2047, 1<<63 + 1} {
		u := NewUniform(n)
		if a := testing.AllocsPerRun(1000, func() { s.Uniform(&u) }); a != 0 {
			t.Fatalf("Stream.Uniform(n=%d): %v allocs per draw, want 0", n, a)
		}
	}
	if a := testing.AllocsPerRun(1000, func() { s.SkipGeometric(g, 8192) }); a != 0 {
		t.Fatalf("Stream.SkipGeometric: %v allocs per call, want 0", a)
	}
}

func TestSamplersShareTables(t *testing.T) {
	a := NewZipf(New(1), 3000, 0.77)
	b := NewZipf(New(2), 3000, 0.77)
	if a.t != b.t || &a.t.cdf[0] != &b.t.cdf[0] {
		t.Fatal("two NewZipf calls with the same (n, theta) built separate tables")
	}
	bs := b.s
	a.Next()
	if b.s != bs {
		t.Fatal("samplers must keep their own streams")
	}
	if c := NewZipf(New(1), 3000, 0.78); c.t == a.t {
		t.Fatal("a different theta must not share the table")
	}
	if NewGeometric(0.37) != NewGeometric(0.37) {
		t.Fatal("two NewGeometric calls with the same p built separate samplers")
	}
}

// TestConcurrentSamplerConstruction builds the same samplers from many
// goroutines at once; every goroutine must get the one shared table and
// draw the reference values. Under -race it also checks the cache's
// locking.
func TestConcurrentSamplerConstruction(t *testing.T) {
	const workers = 16
	ps := []float64{0.21, 0.0041, 0.93}
	type key struct {
		n     int
		theta float64
	}
	zs := []key{{700, 0.61}, {1 << 12, 1.21}, {33, 0}}
	geos := make([][]*Geometric, workers)
	tabs := make([][]*zipfTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := New(uint64(w))
			for i := range ps {
				p := ps[(i+w)%len(ps)]
				g := NewGeometric(p)
				geos[w] = append(geos[w], g)
				m := s.Uint64() >> 11
				if got, want := g.draw(m), refGeometric(p, m); got != want {
					t.Errorf("p=%v m=%d: sampler %d, reference %d", p, m, got, want)
				}
			}
			for i := range zs {
				k := zs[(i+w)%len(zs)]
				z := NewZipf(New(uint64(w)), k.n, k.theta)
				tabs[w] = append(tabs[w], z.t)
				m := s.Uint64() >> 11
				if got, want := z.t.rank(m), refZipfRank(z.t.cdf, float64(m)/(1<<53)); got != want {
					t.Errorf("n=%d m=%d: sampler %d, reference %d", k.n, m, got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := range ps {
			if geos[w][i] != NewGeometric(ps[(i+w)%len(ps)]) {
				t.Fatalf("worker %d got a private geometric sampler", w)
			}
		}
		for i := range zs {
			k := zs[(i+w)%len(zs)]
			if tabs[w][i] != NewZipf(New(0), k.n, k.theta).t {
				t.Fatalf("worker %d got a private Zipf table", w)
			}
		}
	}
}

func BenchmarkGeometric(b *testing.B) {
	s := New(1)
	g := NewGeometric(0.45)
	for i := 0; i < b.N; i++ {
		_ = s.Geometric(g)
	}
}
