// Package sram provides an analytical, CACTI-style model of the SRAM
// last-level-cache slices used by the paper's clusters (Sec. II-C2).
//
// The paper uses CACTI(-P) to estimate LLC energy "and to account for
// cutting-edge leakage reduction techniques", reporting that a 1MB slice
// dissipates power "in the order of 500mW, mostly due to leakage". This
// package reproduces that with a first-order array model:
//
//   - leakage: per-cell subthreshold leakage (already including the
//     CACTI-P-style gated-ground reduction) times the cell count, plus a
//     fixed periphery fraction;
//   - dynamic: wordline + bitline + sense-amp + tag-match energy per
//     access, proportional to the line width and the number of ways probed;
//   - latency: a logarithmic decoder term plus a wire term that grows with
//     the square root of capacity (uniform-cache approximation of the
//     CACTI/NUCA latency models).
//
// The LLC sits on the fixed uncore voltage/clock domain, so all figures are
// independent of the core DVFS point (paper Sec. II-C2).
package sram

import (
	"fmt"
	"math"
	"time"

	"ntcsim/internal/cache"
)

// Config describes one SRAM array (an LLC slice or bank group).
type Config struct {
	CapacityBytes int // data capacity
	Associativity int // ways
	Banks         int // independently accessible banks

	// CellLeakW is the average leakage per bit cell in watts, after leakage
	// reduction techniques (CACTI-P). Calibrated so a 1MB slice lands at
	// ~500mW, leakage-dominated.
	CellLeakW float64
	// PeripheryLeakFrac adds decoder/sense/periphery leakage as a fraction
	// of cell leakage.
	PeripheryLeakFrac float64
	// BitReadEnergyJ / BitWriteEnergyJ are the per-bit dynamic energies of
	// a data-array access.
	BitReadEnergyJ  float64
	BitWriteEnergyJ float64
	// TagEnergyPerWayJ is the energy to probe one tag way.
	TagEnergyPerWayJ float64
}

// DefaultLLCConfig returns the paper's per-cluster LLC: 4MB, 16-way, 4
// banks, 64B lines.
func DefaultLLCConfig() Config {
	return Config{
		CapacityBytes:     4 << 20,
		Associativity:     16,
		Banks:             4,
		CellLeakW:         48e-9, // 48 nW/bit -> ~403mW/MB cell leakage
		PeripheryLeakFrac: 0.10,
		BitReadEnergyJ:    0.9e-12,
		BitWriteEnergyJ:   1.1e-12,
		TagEnergyPerWayJ:  6e-12,
	}
}

// Validate returns an error unless c describes a buildable array.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("sram: capacity must be positive, got %d", c.CapacityBytes)
	case c.CapacityBytes%cache.LineBytes != 0:
		return fmt.Errorf("sram: line size %d must divide capacity %d", cache.LineBytes, c.CapacityBytes)
	case c.Associativity <= 0:
		return fmt.Errorf("sram: associativity must be positive, got %d", c.Associativity)
	case c.Banks <= 0:
		return fmt.Errorf("sram: banks must be positive, got %d", c.Banks)
	}
	return nil
}

// bits returns the number of data bits, including a ~7% tag/ECC overhead.
func (c Config) bits() float64 {
	return float64(c.CapacityBytes) * 8 * 1.07
}

// LeakagePower returns the static power of the array in watts.
func (c Config) LeakagePower() float64 {
	cell := c.bits() * c.CellLeakW
	return cell * (1 + c.PeripheryLeakFrac)
}

// ReadEnergy returns the energy of one read access (tag probe of all ways +
// one line read) in joules.
func (c Config) ReadEnergy() float64 {
	return float64(c.Associativity)*c.TagEnergyPerWayJ + cache.LineBytes*8*c.BitReadEnergyJ
}

// WriteEnergy returns the energy of one write access in joules.
func (c Config) WriteEnergy() float64 {
	return float64(c.Associativity)*c.TagEnergyPerWayJ + cache.LineBytes*8*c.BitWriteEnergyJ
}

// AccessLatency returns the array access latency. The decoder contributes a
// logarithmic term and the global wires a sqrt(capacity) term — the
// standard uniform-access approximation (CACTI 6.0-style). A 4MB array
// lands near 5ns, matching an ~10-cycle LLC at a 2GHz uncore clock.
func (c Config) AccessLatency() time.Duration {
	perBank := float64(c.CapacityBytes) / float64(c.Banks)
	decode := 0.15 * math.Log2(perBank) // ns
	wire := 0.045 * math.Sqrt(perBank/1024)
	return time.Duration((decode + wire) * float64(time.Nanosecond))
}

// Power returns total array power in watts given read and write access
// rates in accesses per second.
func (c Config) Power(readsPerSec, writesPerSec float64) float64 {
	return c.LeakagePower() + readsPerSec*c.ReadEnergy() + writesPerSec*c.WriteEnergy()
}
