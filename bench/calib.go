package main

import (
	"sync"
	"time"
)

// The benchmark runs on shared virtual machines whose speed drifts: for
// minutes at a time the host runs them up to twice as slow, and every
// time metric moves with it. Each run therefore also times a fixed
// calibration kernel and reports its times scaled to the speed at which
// the kernel takes refKernelMS. The kernel is code of this package only,
// so a change to the program cannot move it; a change that makes the
// program faster lowers the scaled times, while a slower host raises the
// program's times and the kernel's together.

// refKernelMS is the kernel's median wall time, with two copies in
// parallel, on the reference host: a 2-vCPU x86-64 VM (Xeon, 2.0 GHz,
// Go 1.24) outside a slow stretch.
const refKernelMS = 3.5

// The kernel simulates a 4-way set-associative LRU cache of 256 sets
// over kernelAccesses addresses of a synthetic stream with locality:
// branchy integer work on cache-resident data, like the program's
// simulators. Memory-bound kernels tracked the program's slow stretches
// worse.
const (
	kernelSets     = 256
	kernelWays     = 4
	kernelAccesses = 150_000
)

// kernel holds one copy of the calibration work per evaluation worker;
// the copies run in parallel, so the kernel sees the host the way a
// parallel op does.
type kernel struct {
	copies []kernelCopy
	sink   uint64 // keeps the result observable so the work is not dropped
}

type kernelCopy struct {
	tags, ages [kernelSets * kernelWays]uint32
}

func newKernel(workers int) *kernel { return &kernel{copies: make([]kernelCopy, workers)} }

// timeMS runs every copy once, in parallel, and returns the wall time in
// milliseconds.
func (k *kernel) timeMS() float64 {
	hits := make([]uint64, len(k.copies))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range k.copies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hits[i] = k.copies[i].run(uint64(i) + 1)
		}(i)
	}
	wg.Wait()
	d := time.Since(start)
	for _, h := range hits {
		k.sink += h
	}
	return ms(d)
}

// run simulates the cache from empty and returns the number of hits.
func (c *kernelCopy) run(seed uint64) uint64 {
	clear(c.tags[:])
	clear(c.ages[:])
	x := seed * 0x9E3779B97F4A7C15
	var hits uint64
	var base uint32
	for i := uint32(1); i <= kernelAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := base + uint32(x>>8)&0x3fff
		if x&7 == 0 { // one access in eight jumps to a new region
			base = uint32(x>>20) & 0xfffff
			addr = base
		}
		set := (addr >> 5) % kernelSets * kernelWays
		tag := addr>>13 + 1 // 0 marks an empty way
		way, lru := -1, set
		for w := set; w < set+kernelWays; w++ {
			if c.tags[w] == tag {
				way = int(w)
				break
			}
			if c.ages[w] < c.ages[lru] {
				lru = w
			}
		}
		if way >= 0 {
			hits++
			c.ages[way] = i
			continue
		}
		c.tags[lru], c.ages[lru] = tag, i
	}
	return hits
}

// hostScale is the factor that turns times measured on this host, at
// this moment, into times at the reference speed: refKernelMS over the
// median of the kernel samples taken during the run.
func hostScale(kernelMS []float64) float64 {
	return refKernelMS / median(kernelMS)
}
