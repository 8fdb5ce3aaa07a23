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

// Crossbar models the cluster's cache-coherent crossbar interconnect: a
// fixed traversal latency plus per-output-port serialization, on the fixed
// uncore clock domain.
type Crossbar struct {
	// Ports is the number of output ports (LLC banks).
	Ports int //ntclint:allow snapshotcheck config: fixed by NewCrossbar
	// TraversalNs is the unloaded one-way traversal latency.
	TraversalNs float64 //ntclint:allow snapshotcheck config: fixed by NewCrossbar
	// OccupancyNs is the time one transfer occupies an output port (the
	// serialization latency of a 64B line over the port width).
	OccupancyNs float64 //ntclint:allow snapshotcheck config: fixed by NewCrossbar
	// StaticW is the standing power of the switch fabric and links (the
	// paper cites 25mW per cluster crossbar).
	StaticW float64 //ntclint:allow snapshotcheck config: fixed by NewCrossbar
	// FlitEnergyJ is the dynamic energy per transferred line.
	FlitEnergyJ float64 //ntclint:allow snapshotcheck config: fixed by NewCrossbar

	nextFree  []float64
	transfers uint64
	waitNs    float64
}

// NewCrossbar returns the paper's cluster crossbar: 4 LLC-bank ports, 2ns
// traversal, 2ns occupancy per 64B transfer, 25mW static power.
func NewCrossbar(ports int) (*Crossbar, error) {
	if ports <= 0 {
		return nil, fmt.Errorf("uncore: crossbar needs at least one port, got %d", ports)
	}
	return &Crossbar{
		Ports:       ports,
		TraversalNs: 2.0,
		OccupancyNs: 2.0,
		StaticW:     0.025,
		FlitEnergyJ: 15e-12,
		nextFree:    make([]float64, ports),
	}, nil
}

// Request arbitrates a transfer toward output port at absolute time nowNs
// and returns the time the transfer is delivered. Contention on the port
// delays delivery; the port is then busy for OccupancyNs.
func (x *Crossbar) Request(port int, nowNs float64) float64 {
	if port < 0 || port >= x.Ports {
		panic(fmt.Sprintf("uncore: crossbar port %d out of range [0,%d)", port, x.Ports))
	}
	grant := math.Max(nowNs, x.nextFree[port])
	x.nextFree[port] = grant + x.OccupancyNs
	x.transfers++
	x.waitNs += grant - nowNs
	return grant + x.TraversalNs
}

// ResetStats clears statistics while preserving arbitration state.
func (x *Crossbar) ResetStats() {
	x.transfers = 0
	x.waitNs = 0
}

// Reset clears arbitration state and statistics.
func (x *Crossbar) Reset() {
	for i := range x.nextFree {
		x.nextFree[i] = 0
	}
	x.transfers = 0
	x.waitNs = 0
}

// Transfers returns the number of arbitrated transfers since Reset.
func (x *Crossbar) Transfers() uint64 { return x.transfers }

// AvgWaitNs returns the mean arbitration wait since Reset.
func (x *Crossbar) AvgWaitNs() float64 {
	if x.transfers == 0 {
		return 0
	}
	return x.waitNs / float64(x.transfers)
}

// Power returns crossbar power in watts at the given transfer rate.
func (x *Crossbar) Power(transfersPerSec float64) float64 {
	return x.StaticW + transfersPerSec*x.FlitEnergyJ
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

// CrossbarState is the crossbar's dynamic state, for checkpointing.
type CrossbarState struct {
	NextFree  []float64
	Transfers uint64
	WaitNs    float64
}

// State captures the crossbar's dynamic state.
func (x *Crossbar) State() CrossbarState {
	return CrossbarState{
		NextFree:  append([]float64(nil), x.nextFree...),
		Transfers: x.transfers,
		WaitNs:    x.waitNs,
	}
}

// Restore loads a state captured from an identically sized crossbar.
func (x *Crossbar) Restore(st CrossbarState) error {
	if len(st.NextFree) != len(x.nextFree) {
		return fmt.Errorf("uncore: state has %d ports, want %d", len(st.NextFree), len(x.nextFree))
	}
	copy(x.nextFree, st.NextFree)
	x.transfers = st.Transfers
	x.waitNs = st.WaitNs
	return nil
}
