// Package core implements ConEx, the paper's contribution: connectivity
// design-space exploration coupled with the memory-modules exploration.
// Starting from the memory architectures APEX selected, ConEx profiles
// the communication channels into a Bandwidth Requirement Graph (BRG),
// hierarchically clusters channels into logical connections by bandwidth,
// enumerates feasible assignments of clusters to connectivity-library
// components, estimates cost/performance/power for each with time-sampled
// simulation (Phase I), and fully simulates only the locally most
// promising designs to select the global best trade-offs (Phase II).
package core

import (
	"context"
	"fmt"

	"memorex/internal/mem"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// BRG is the Bandwidth Requirement Graph of one memory-modules
// architecture: its nodes are the CPU, the on-chip modules, and the
// off-chip DRAM; its arcs are the communication channels, labelled with
// the traffic the application puts on them.
type BRG struct {
	Arch     *mem.Architecture
	Channels []mem.Channel
	// Bytes[i] is the traffic on channel i over the whole trace.
	Bytes []int64
	// Accesses is the trace length, the normalization base.
	Accesses int64
}

// BuildBRG profiles the trace against the architecture under an ideal
// interconnect and labels every channel with its bandwidth requirement.
func BuildBRG(t *trace.Trace, arch *mem.Architecture) (*BRG, error) {
	brgs, err := BuildBRGs(context.Background(), t, []*mem.Architecture{arch}, 1)
	if err != nil {
		return nil, err
	}
	return brgs[0], nil
}

// BuildBRGs profiles every architecture in one batched memory-only
// simulation on at most workers goroutines (<= 0 means all CPUs).
func BuildBRGs(ctx context.Context, t *trace.Trace, archs []*mem.Architecture, workers int) ([]*BRG, error) {
	rs, err := sim.MemOnly(ctx, t, archs, workers)
	if err != nil {
		return nil, err
	}
	brgs := make([]*BRG, len(archs))
	for i, a := range archs {
		brgs[i] = NewBRG(a, rs[i])
	}
	return brgs, nil
}

// NewBRG labels the architecture's channels with the traffic of a
// memory-only simulation of it, such as the one APEX scored it with.
func NewBRG(arch *mem.Architecture, r *sim.MemOnlyResult) *BRG {
	return &BRG{
		Arch:     arch,
		Channels: arch.Channels(),
		Bytes:    r.ChannelBytes,
		Accesses: r.Accesses,
	}
}

// Bandwidth returns channel i's traffic in bytes per access.
func (b *BRG) Bandwidth(i int) float64 {
	if b.Accesses == 0 {
		return 0
	}
	return float64(b.Bytes[i]) / float64(b.Accesses)
}

// ClusterBandwidth returns the cumulative bandwidth of a channel set.
func (b *BRG) ClusterBandwidth(cluster []int) float64 {
	var sum float64
	for _, ch := range cluster {
		sum += b.Bandwidth(ch)
	}
	return sum
}

// String renders the BRG arcs for logging.
func (b *BRG) String() string {
	s := fmt.Sprintf("BRG(%s):", b.Arch.Name)
	for i, ch := range b.Channels {
		s += fmt.Sprintf(" %s=%.3fB/acc", ch.Label(b.Arch), b.Bandwidth(i))
	}
	return s
}
