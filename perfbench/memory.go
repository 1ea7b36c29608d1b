package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/tensor"
)

// heapSampler records the peak heap in use — bytes in heap objects, live or
// not yet collected — while a timed phase runs. It reads runtime/metrics,
// which does not stop the world, every few milliseconds. The live heap
// alone is known only at a collection, and a serving run collects about
// once in 20 s, so its peak would read a single collection.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak heap in use in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// allocCounters snapshots the process's allocation and GC counters, so a
// timed phase can report what it allocated and what the collector cost.
type allocCounters struct {
	bytes, objects  uint64
	scratchFresh    uint64
	gcCPU, totalCPU float64
}

func readAllocCounters() allocCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return allocCounters{
		bytes:        ms.TotalAlloc,
		objects:      ms.Mallocs,
		scratchFresh: tensor.ScratchStatsSnapshot().Allocs,
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
	}
}

// allocDelta is what happened between two snapshots.
type allocDelta struct {
	mb, objects, scratchFresh float64
	gcCPUFrac                 float64
}

func (a allocCounters) to(b allocCounters) allocDelta {
	return allocDelta{
		mb:           float64(b.bytes-a.bytes) / (1 << 20),
		objects:      float64(b.objects - a.objects),
		scratchFresh: float64(b.scratchFresh - a.scratchFresh),
		gcCPUFrac:    ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
}
