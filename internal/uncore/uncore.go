// Package uncore models the non-core SoC components of the paper's server
// chip (Sec. II-B, II-C2): the per-cluster cache-coherent crossbar that
// connects cores to LLC banks, and the I/O peripherals along the chip edge
// (modeled in the paper with McPAT following a Sun UltraSPARC T2
// configuration, ~5W total).
//
// All uncore components sit on their own voltage/clock domain, so their
// power and latency are independent of the cores' DVFS point — the property
// that shifts the SoC-level optimal efficiency point to ~1GHz (paper
// Sec. V-B2).
package uncore

import (
	"fmt"
	"math"
)

// The paper's cluster crossbar, on the fixed uncore clock domain.
const (
	// CrossbarTraversalNs is the unloaded one-way traversal latency.
	CrossbarTraversalNs = 2.0
	// crossbarOccupancyNs is the time one transfer occupies an output
	// port (the serialization latency of a 64B line over the port width).
	crossbarOccupancyNs = 2.0
	// crossbarStaticW is the standing power of the switch fabric and
	// links (the paper cites 25mW per cluster crossbar).
	crossbarStaticW = 0.025
	// crossbarFlitEnergyJ is the dynamic energy per transferred line.
	crossbarFlitEnergyJ = 15e-12
)

// Crossbar models the cluster's cache-coherent crossbar interconnect: a
// fixed traversal latency plus per-output-port serialization.
type Crossbar struct {
	nextFree  []float64 // per output port (LLC bank)
	transfers uint64
}

// NewCrossbar returns a crossbar with the given number of output ports.
func NewCrossbar(ports int) (*Crossbar, error) {
	if ports <= 0 {
		return nil, fmt.Errorf("uncore: crossbar needs at least one port, got %d", ports)
	}
	return &Crossbar{nextFree: make([]float64, ports)}, nil
}

// Request arbitrates a transfer toward output port at absolute time nowNs
// and returns the time the transfer is delivered. Contention on the port
// delays delivery; the port is then busy for one occupancy time.
func (x *Crossbar) Request(port int, nowNs float64) float64 {
	if port < 0 || port >= len(x.nextFree) {
		panic(fmt.Sprintf("uncore: crossbar port %d out of range [0,%d)", port, len(x.nextFree)))
	}
	grant := math.Max(nowNs, x.nextFree[port])
	x.nextFree[port] = grant + crossbarOccupancyNs
	x.transfers++
	return grant + CrossbarTraversalNs
}

// CloneInto makes dst an independent copy of the crossbar — port
// arbitration state and transfer count — reusing dst's storage, and
// returns it; a nil dst is allocated.
func (x *Crossbar) CloneInto(dst *Crossbar) *Crossbar {
	if dst == nil {
		dst = new(Crossbar)
	}
	nextFree := dst.nextFree
	*dst = *x
	dst.nextFree = append(nextFree[:0], x.nextFree...)
	return dst
}

// Clone returns an independent copy of the crossbar: CloneInto(nil).
func (x *Crossbar) Clone() *Crossbar { return x.CloneInto(nil) }

// ResetStats clears statistics while preserving arbitration state.
func (x *Crossbar) ResetStats() { x.transfers = 0 }

// Transfers returns the number of arbitrated transfers since ResetStats.
func (x *Crossbar) Transfers() uint64 { return x.transfers }

// CrossbarPower returns the power in watts of one crossbar at the given
// transfer rate.
func CrossbarPower(transfersPerSec float64) float64 {
	return crossbarStaticW + transfersPerSec*crossbarFlitEnergyJ
}

// Component is one I/O peripheral block with its standing power.
type Component struct {
	Name string
	// StaticW burns regardless of activity (these blocks are not power
	// managed in the paper's platform).
	StaticW float64
}

// Peripherals aggregates the chip-edge I/O blocks.
type Peripherals struct {
	Components []Component
}

// SunT2Peripherals returns the McPAT-derived UltraSPARC T2-style I/O
// configuration the paper uses, summing to ~5W: memory controllers, PCIe
// root complex, dual 10GbE NICs, and miscellaneous I/O.
func SunT2Peripherals() *Peripherals {
	return &Peripherals{Components: []Component{
		{Name: "memory controllers (4x DDR4)", StaticW: 2.0},
		{Name: "PCIe root complex", StaticW: 1.2},
		{Name: "2x 10GbE NIC", StaticW: 1.3},
		{Name: "misc I/O (SATA, USB, debug)", StaticW: 0.5},
	}}
}

// Power returns total peripheral power in watts.
func (p *Peripherals) Power() float64 {
	sum := 0.0
	for _, c := range p.Components {
		sum += c.StaticW
	}
	return sum
}
