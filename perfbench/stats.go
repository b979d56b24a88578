package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"syscall"
	"time"
)

// processCPU is the process's user + system CPU time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

const (
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmSchedLat     = "/sched/latencies:seconds"
	rmHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// rtSample is one read of the runtime counters a window differences.
type rtSample struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
	sched                    *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: rmAllocObjects}, {Name: rmAllocBytes}, {Name: rmGCCPU},
		{Name: rmTotalCPU}, {Name: rmSchedLat},
	}
	metrics.Read(s)
	out := rtSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
	h := s[4].Value.Float64Histogram()
	out.sched = &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: append([]float64(nil), h.Buckets...),
	}
	return out
}

// heapSampler reads the heap-in-use gauge; it reuses its sample slice so
// the window's 1 ms sampling allocates nothing.
type heapSampler struct{ s []metrics.Sample }

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: rmHeapObjects}}}
}

func (h *heapSampler) read() uint64 {
	metrics.Read(h.s)
	return h.s[0].Value.Uint64()
}

// schedQuantile is the q-quantile (upper bucket bound, seconds) of the
// scheduling-latency histogram's growth between two samples.
func schedQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i := range b.Counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// tailQuantile is the highest percentile with at least ten samples beyond
// it, for n samples (0 when there are not enough samples for any).
func tailQuantile(n uint64) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

// histSubBits sets the latency histogram's resolution: 2^histSubBits
// linear buckets per power of two, so a recorded value is kept to within
// 0.4% while the memory stays fixed however many values are recorded — a
// growing sample slice would make the benchmark's own allocations part of
// what it measures.
const histSubBits = 8

// latHist is a log-linear histogram of non-negative nanosecond values.
type latHist struct {
	counts []uint64
	n      uint64
}

// histMax bounds the recorded values (about 18 minutes); larger ones are
// kept as histMax.
const histMax = 1<<40 - 1

func newLatHist() *latHist {
	return &latHist{counts: make([]uint64, histBucket(histMax)+1)}
}

func (h *latHist) add(ns int64) {
	h.counts[histBucket(uint64(min(max(ns, 0), histMax)))]++
	h.n++
}

func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := 63 - bits.LeadingZeros64(v) - histSubBits
	return (shift+1)<<histSubBits + int(v>>shift) - 1<<histSubBits
}

// histValue is the midpoint of bucket b.
func histValue(b int) float64 {
	if b < 1<<histSubBits {
		return float64(b)
	}
	shift := b>>histSubBits - 1
	m := b&(1<<histSubBits-1) + 1<<histSubBits
	return (float64(m) + 0.5) * float64(uint64(1)<<shift)
}

// quantile returns the q-quantile in milliseconds by the nearest-rank rule
// (0 when empty).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return histValue(b) / 1e6
		}
	}
	return 0
}
