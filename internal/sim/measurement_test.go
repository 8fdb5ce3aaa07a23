package sim

import (
	"fmt"
	"reflect"
	"testing"

	"ntcsim/internal/cache"
	"ntcsim/internal/cpu"
	"ntcsim/internal/dram"
)

// setDistinct sets every numeric field reachable from v, through structs
// and slice elements, to the next value of *next.
func setDistinct(t *testing.T, v reflect.Value, next *float64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setDistinct(t, v.Field(i), next)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			setDistinct(t, v.Index(i), next)
		}
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Int64:
		v.SetInt(int64(*next))
	case reflect.Float64:
		v.SetFloat(*next)
	default:
		t.Fatalf("setDistinct: unhandled kind %s", v.Kind())
	}
	*next++
}

// number returns a numeric leaf as a float64 (every test value is a small
// integer, so the conversion is exact).
func number(v reflect.Value) float64 {
	switch v.Kind() {
	case reflect.Uint64:
		return float64(v.Uint())
	case reflect.Int64:
		return float64(v.Int())
	}
	return v.Float()
}

// requireSummed requires each numeric leaf of got to be the sum of the
// leaves of a and b at the same path, or a's leaf for a path in keepFirst.
func requireSummed(t *testing.T, path string, got, a, b reflect.Value, keepFirst map[string]bool) {
	t.Helper()
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			requireSummed(t, path+"."+got.Type().Field(i).Name, got.Field(i), a.Field(i), b.Field(i), keepFirst)
		}
	case reflect.Slice:
		if got.Len() != a.Len() {
			t.Fatalf("%s: length %d, want %d", path, got.Len(), a.Len())
		}
		for i := 0; i < got.Len(); i++ {
			requireSummed(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), a.Index(i), b.Index(i), keepFirst)
		}
	default:
		want := number(a) + number(b)
		if keepFirst[path] {
			want = number(a)
		}
		if g := number(got); g != want {
			t.Errorf("%s = %v after Add, want %v", path, g, want)
		}
	}
}

// requireAddSums fills two values of T (built by mk) with distinct numbers,
// adds one to the other and requires every field summed except keepFirst.
func requireAddSums[T any](t *testing.T, name string, mk func() *T, add func(*T, T), keepFirst ...string) {
	t.Helper()
	a, b, got := mk(), mk(), mk()
	next := 1.0
	setDistinct(t, reflect.ValueOf(a).Elem(), &next)
	next = 1
	setDistinct(t, reflect.ValueOf(got).Elem(), &next)
	next = 1000
	setDistinct(t, reflect.ValueOf(b).Elem(), &next)
	add(got, *b)
	keep := map[string]bool{}
	for _, p := range keepFirst {
		keep[name+"."+p] = true
	}
	requireSummed(t, name, reflect.ValueOf(got).Elem(), reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), keep)
}

// TestAddCoversEveryField sums two records whose every counter differs and
// requires each to be added, so a counter added to cache.Stats, cpu.Stats,
// dram.Stats or Measurement without its Add line fails here. The one
// exception is Measurement.FreqHz, which keeps the first window's clock.
func TestAddCoversEveryField(t *testing.T) {
	requireAddSums(t, "cache.Stats", func() *cache.Stats { return new(cache.Stats) }, (*cache.Stats).Add)
	requireAddSums(t, "cpu.Stats", func() *cpu.Stats { return new(cpu.Stats) }, (*cpu.Stats).Add)
	requireAddSums(t, "dram.Stats", func() *dram.Stats { return new(dram.Stats) }, (*dram.Stats).Add)
	oneCore := func() *Measurement { return &Measurement{PerCore: make([]cpu.Stats, 1)} }
	requireAddSums(t, "Measurement", oneCore, (*Measurement).Add, "FreqHz")

	// Adding a window to the zero record yields the window itself.
	w := oneCore()
	next := 1.0
	setDistinct(t, reflect.ValueOf(w).Elem(), &next)
	var total Measurement
	total.Add(*w)
	if !reflect.DeepEqual(total, *w) {
		t.Fatalf("zero record plus one window:\n got %+v\nwant %+v", total, *w)
	}
}
