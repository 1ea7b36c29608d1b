// Package allreduce implements the gradient reduction collectives of the
// data-parallel path. There is one ring all-reduce (the algorithm NCCL runs
// across GPUs), in topology.go: it runs over framed links, TCP between
// processes (FormTopology) or in-memory pipes within one (LocalTopologies),
// flat or hierarchical. Ring and Hierarchical apply it to a set of buffers in
// one process; Naive is the gather-and-broadcast baseline of the ablation
// benchmarks. All of them operate in place.
package allreduce

import (
	"errors"
	"fmt"
	"sync"
)

// chunkBounds returns the [lo, hi) range of chunk c when a buffer of length
// n is split into parts chunks (earlier chunks take the remainder).
func chunkBounds(n, parts, c int) (int, int) {
	base := n / parts
	rem := n % parts
	lo := c*base + min(c, rem)
	size := base
	if c < rem {
		size++
	}
	return lo, lo + size
}

func validate(bufs [][]float32) error {
	if len(bufs) == 0 {
		return fmt.Errorf("allreduce: no buffers")
	}
	n := len(bufs[0])
	for i, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("allreduce: buffer %d has length %d, want %d", i, len(b), n)
		}
	}
	return nil
}

// reduceLocal wires one local topology per buffer, runs the all-reduce (or
// its average) on every rank concurrently, and closes the topologies.
func reduceLocal(bufs [][]float32, groupSize int, average bool) error {
	if err := validate(bufs); err != nil {
		return err
	}
	topos := LocalTopologies(len(bufs), groupSize)
	errs := make([]error, len(bufs))
	var wg sync.WaitGroup
	for r, t := range topos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if average {
				errs[r] = t.AllReduceAverage(bufs[r])
			} else {
				errs[r] = t.AllReduce(bufs[r])
			}
			if errs[r] != nil {
				for _, o := range topos { // unblock the other ranks
					o.Close()
				}
			}
		}()
	}
	wg.Wait()
	for _, t := range topos {
		t.Close()
	}
	return errors.Join(errs...)
}

// Ring performs an in-place ring all-reduce: after it returns every buffer
// holds the elementwise sum of all input buffers. Each buffer is one rank
// of a flat ring over in-memory links: n−1 scatter-reduce steps followed by
// n−1 all-gather steps, each moving 1/n of the buffer.
func Ring(bufs [][]float32) error { return reduceLocal(bufs, 0, false) }

// RingAverage runs Ring and divides every buffer by the replica count,
// producing the averaged gradients synchronous SGD applies.
func RingAverage(bufs [][]float32) error { return reduceLocal(bufs, 0, true) }

// Naive performs the gather-then-broadcast baseline: buffer 0 accumulates
// every other buffer sequentially and the result is copied back out. Same
// result as Ring, with 2·(n−1) full-buffer transfers on one root.
func Naive(bufs [][]float32) error {
	if err := validate(bufs); err != nil {
		return err
	}
	root := bufs[0]
	for _, b := range bufs[1:] {
		for i := range root {
			root[i] += b[i]
		}
	}
	for _, b := range bufs[1:] {
		copy(b, root)
	}
	return nil
}

// NaiveAverage runs Naive and averages.
func NaiveAverage(bufs [][]float32) error {
	if err := Naive(bufs); err != nil {
		return err
	}
	inv := 1 / float32(len(bufs))
	for _, b := range bufs {
		for i := range b {
			b[i] *= inv
		}
	}
	return nil
}
