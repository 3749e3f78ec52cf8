// Package connect models the connectivity IP library of the paper:
// AMBA-style system busses (AHB, ASB, APB), MUX-based connections,
// dedicated point-to-point links, and off-chip busses. Each component
// carries the attributes the paper's library records — resource usage
// (gates, including a wire-area contribution per the Chen and Deng/Maly
// models), latency, pipelining, parallelism, split-transaction support,
// and bitwidth — plus an energy-per-byte figure for the power dimension.
package connect

import (
	"fmt"

	"memorex/internal/mem"
	"memorex/internal/rtable"
)

// Class enumerates the connectivity component families.
type Class int

// Connectivity classes, ordered roughly by controller complexity.
const (
	// Dedicated is a point-to-point link: minimal latency, but every
	// channel needs its own long wires.
	Dedicated Class = iota
	// Mux is a multiplexer-based connection: near-dedicated latency
	// shared among a few ports.
	Mux
	// APB is the AMBA peripheral bus: cheap, slow, not pipelined.
	APB
	// ASB is the AMBA system bus: arbitrated, moderately fast.
	ASB
	// AHB is the AMBA high-performance bus: pipelined, split
	// transactions, expensive controller.
	AHB
	// OffChip is a chip-boundary bus through pads to external memory.
	OffChip
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Dedicated:
		return "dedicated"
	case Mux:
		return "mux"
	case APB:
		return "apb"
	case ASB:
		return "asb"
	case AHB:
		return "ahb"
	case OffChip:
		return "offchip"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Component is one entry of the connectivity IP library.
type Component struct {
	Name  string
	Class Class
	// WidthBytes is the data-path width: a transfer of n bytes takes
	// ceil(n/WidthBytes) beats.
	WidthBytes int
	// ArbCycles is the arbitration/selection latency paid per transfer.
	ArbCycles int
	// BeatCycles is the cycles per data beat.
	BeatCycles int
	// Pipelined components release the arbiter while data moves, so
	// back-to-back transfers overlap; non-pipelined components hold the
	// whole bus for the full transfer.
	Pipelined bool
	// Split components release the data path during slave dead time
	// (DRAM latency), letting other masters use the bus meanwhile.
	Split bool
	// MaxPorts bounds how many endpoints (CPU, modules, DRAM side) the
	// component can connect.
	MaxPorts int
	// OnChip is false for chip-boundary components. On-chip channels
	// must map to on-chip components and vice versa.
	OnChip bool
	// EnergyPerByte is the transfer energy in nJ/byte (wire + driver
	// capacitance; off-chip pads are an order of magnitude above
	// on-chip wires).
	EnergyPerByte float64
	// BaseGates is the controller/arbiter area.
	BaseGates float64
	// GatesPerPort is the per-port mux/driver area.
	GatesPerPort float64
	// WireGatesPerPort is the wire-area contribution per attached port
	// expressed in gate equivalents (the paper derives wire area from
	// the floorplan models of Chen et al. and Deng/Maly; point-to-point
	// styles pay much more wiring than shared busses).
	WireGatesPerPort float64
}

// StageWindow is the reservation window, in cycles, that every stage of
// a transfer's reservation table is clamped to. It sits inside rtable's
// 64-cycle tables; ValidateComponent bounds ArbCycles by it, so every
// clamped table still holds its arbitration stage whole.
const StageWindow = 62

// resource indices of the reservation tables built for components.
const (
	resArbiter = 0
	resData    = 1
	numRes     = 2
)

// NumResources returns the resource count of component reservation
// tables (arbiter and data path).
func NumResources() int { return numRes }

// Beats returns the number of data beats needed to move n bytes.
func (c *Component) Beats(n int) int {
	if n <= 0 {
		return 0
	}
	b := (n + c.WidthBytes - 1) / c.WidthBytes
	return b
}

// TransferCycles returns the latency of moving n bytes once granted:
// arbitration plus data beats.
func (c *Component) TransferCycles(n int) int {
	return c.ArbCycles + c.Beats(n)*c.BeatCycles
}

// Table returns the reservation table of an n-byte transfer on this
// component: how long the arbiter and the data path are held. For
// non-pipelined components the arbiter is held for the whole transfer,
// serializing everything; pipelined components release it after
// arbitration so the next transfer can overlap. A burst longer than
// StageWindow holds the data path only up to the window's end: the
// table clamps its occupancy, while TransferCycles keeps its full
// latency. So for a valid component and n >= 1 no stage ends after
// TransferCycles(n).
func (c *Component) Table(n int) *rtable.Table {
	t := rtable.New(c.Name, numRes)
	dataCycles := min(c.Beats(n)*c.BeatCycles, StageWindow-c.ArbCycles)
	if c.ArbCycles > 0 {
		if c.Pipelined {
			t.Stage(resArbiter, 0, c.ArbCycles)
		} else {
			t.Stage(resArbiter, 0, c.ArbCycles+dataCycles)
		}
	} else if !c.Pipelined {
		t.Stage(resArbiter, 0, max(1, dataCycles))
	}
	if dataCycles > 0 {
		t.Stage(resData, c.ArbCycles, dataCycles)
	}
	return t
}

// Stages returns the dynamic stage list for an n-byte transfer (the
// Table flattened), ready for a rtable.Scheduler.
func (c *Component) Stages(n int) []rtable.Stage {
	return c.Table(n).Stages()
}

// Gates returns the component's area in gate equivalents when connecting
// the given number of ports.
func (c *Component) Gates(ports int) float64 {
	if ports < 2 {
		ports = 2
	}
	return c.BaseGates + float64(ports)*(c.GatesPerPort+c.WireGatesPerPort)
}

// TransferEnergy returns the energy in nJ of moving n bytes, including a
// fixed arbitration overhead.
func (c *Component) TransferEnergy(n int) float64 {
	return 0.01 + float64(n)*c.EnergyPerByte
}

// Fits reports whether the component can implement a channel set with
// the given port count and chip placement.
func (c *Component) Fits(ports int, offChip bool) bool {
	if offChip == c.OnChip {
		return false
	}
	return ports <= c.MaxPorts
}

// Library returns the default connectivity IP library used by the
// experiments. The entries mirror the paper's examples: AMBA AHB
// (32- and 64-bit), ASB, APB, MUX-based connections, dedicated links,
// and two off-chip bus widths.
func Library() []Component {
	return []Component{
		{
			Name: "ded32", Class: Dedicated, WidthBytes: 4,
			ArbCycles: 0, BeatCycles: 1, Pipelined: true, MaxPorts: 2, OnChip: true,
			EnergyPerByte: 0.080, BaseGates: 220, GatesPerPort: 160, WireGatesPerPort: 1900,
		},
		{
			Name: "mux32", Class: Mux, WidthBytes: 4,
			ArbCycles: 0, BeatCycles: 1, Pipelined: true, MaxPorts: 4, OnChip: true,
			EnergyPerByte: 0.070, BaseGates: 450, GatesPerPort: 380, WireGatesPerPort: 1300,
		},
		{
			Name: "apb32", Class: APB, WidthBytes: 4,
			ArbCycles: 2, BeatCycles: 2, Pipelined: false, MaxPorts: 8, OnChip: true,
			EnergyPerByte: 0.030, BaseGates: 950, GatesPerPort: 130, WireGatesPerPort: 420,
		},
		{
			Name: "asb32", Class: ASB, WidthBytes: 4,
			ArbCycles: 2, BeatCycles: 1, Pipelined: false, MaxPorts: 8, OnChip: true,
			EnergyPerByte: 0.040, BaseGates: 1700, GatesPerPort: 210, WireGatesPerPort: 520,
		},
		{
			Name: "ahb32", Class: AHB, WidthBytes: 4,
			ArbCycles: 1, BeatCycles: 1, Pipelined: true, Split: true, MaxPorts: 16, OnChip: true,
			EnergyPerByte: 0.050, BaseGates: 3400, GatesPerPort: 270, WireGatesPerPort: 600,
		},
		{
			Name: "ahb64", Class: AHB, WidthBytes: 8,
			ArbCycles: 1, BeatCycles: 1, Pipelined: true, Split: true, MaxPorts: 16, OnChip: true,
			EnergyPerByte: 0.058, BaseGates: 6100, GatesPerPort: 430, WireGatesPerPort: 980,
		},
		{
			Name: "off16", Class: OffChip, WidthBytes: 2,
			ArbCycles: 2, BeatCycles: 2, Pipelined: false, MaxPorts: 6, OnChip: false,
			EnergyPerByte: 0.350, BaseGates: 2600, GatesPerPort: 140, WireGatesPerPort: 0,
		},
		{
			Name: "off32", Class: OffChip, WidthBytes: 4,
			ArbCycles: 2, BeatCycles: 1, Pipelined: false, MaxPorts: 6, OnChip: false,
			EnergyPerByte: 0.520, BaseGates: 4600, GatesPerPort: 220, WireGatesPerPort: 0,
		},
	}
}

// OnChipComponents filters the library to on-chip entries.
func OnChipComponents(lib []Component) []Component {
	var out []Component
	for _, c := range lib {
		if c.OnChip {
			out = append(out, c)
		}
	}
	return out
}

// OffChipComponents filters the library to chip-boundary entries.
func OffChipComponents(lib []Component) []Component {
	var out []Component
	for _, c := range lib {
		if !c.OnChip {
			out = append(out, c)
		}
	}
	return out
}

// ByName returns the library component with the given name.
func ByName(lib []Component, name string) (Component, error) {
	for _, c := range lib {
		if c.Name == name {
			return c, nil
		}
	}
	return Component{}, fmt.Errorf("connect: no component %q in library", name)
}

// Arch is a connectivity architecture for a specific memory-modules
// architecture: the channels are partitioned into clusters (the paper's
// "logical connections") and each cluster is implemented by one library
// component (the "physical connection").
type Arch struct {
	// Channels is the channel list of the memory architecture this
	// connectivity architecture implements (mem.Architecture.Channels).
	Channels []mem.Channel
	// Clusters partitions channel indices into logical connections.
	Clusters [][]int
	// Assign[i] is the component implementing Clusters[i].
	Assign []Component
}

// Ports returns the endpoint count of cluster i: each channel brings two
// endpoints, but the shared CPU/DRAM side is counted once.
func (a *Arch) Ports(i int) int {
	return len(a.Clusters[i]) + 1
}

// Validate checks that the clustering is a partition of the channels and
// every assignment is a valid component (ValidateComponent) that is
// feasible (port count, chip placement, no mixing of on- and off-chip
// channels in one cluster).
func (a *Arch) Validate() error {
	if len(a.Clusters) != len(a.Assign) {
		return fmt.Errorf("connect: %d clusters but %d assignments", len(a.Clusters), len(a.Assign))
	}
	seen := make([]bool, len(a.Channels))
	for i, cl := range a.Clusters {
		if len(cl) == 0 {
			return fmt.Errorf("connect: cluster %d is empty", i)
		}
		for _, ch := range cl {
			if ch < 0 || ch >= len(a.Channels) {
				return fmt.Errorf("connect: cluster %d references channel %d out of range", i, ch)
			}
		}
		off := a.Channels[cl[0]].OffChip
		for _, ch := range cl {
			if seen[ch] {
				return fmt.Errorf("connect: channel %d appears in multiple clusters", ch)
			}
			seen[ch] = true
			if a.Channels[ch].OffChip != off {
				return fmt.Errorf("connect: cluster %d mixes on-chip and off-chip channels", i)
			}
		}
		if err := ValidateComponent(&a.Assign[i]); err != nil {
			return err
		}
		if !a.Assign[i].Fits(a.Ports(i), off) {
			return fmt.Errorf("connect: cluster %d (%d ports, offchip=%v) cannot map to %s",
				i, a.Ports(i), off, a.Assign[i].Name)
		}
	}
	for ch, ok := range seen {
		if !ok {
			return fmt.Errorf("connect: channel %d not covered by any cluster", ch)
		}
	}
	return nil
}

// Gates returns the connectivity area in gate equivalents.
func (a *Arch) Gates() float64 {
	var g float64
	for i := range a.Clusters {
		g += a.Assign[i].Gates(a.Ports(i))
	}
	return g
}

// ComponentOf returns the cluster index and component serving channel
// ch, or -1 if the channel is not covered.
func (a *Arch) ComponentOf(ch int) int {
	for i, cl := range a.Clusters {
		for _, c := range cl {
			if c == ch {
				return i
			}
		}
	}
	return -1
}

// Describe returns a compact summary like
// "ahb32[cpu<->cache8k,cpu<->sram4096b] + off32[cache8k<->dram]".
func (a *Arch) Describe(m *mem.Architecture) string {
	s := ""
	for i, cl := range a.Clusters {
		if i > 0 {
			s += " + "
		}
		s += a.Assign[i].Name + "["
		for j, ch := range cl {
			if j > 0 {
				s += ","
			}
			s += a.Channels[ch].Label(m)
		}
		s += "]"
	}
	return s
}
