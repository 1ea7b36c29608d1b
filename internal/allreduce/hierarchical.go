package allreduce

import "fmt"

// Hierarchical performs a two-level all-reduce mirroring the paper's
// deployment: a ring within each node group (Distributed TensorFlow over
// NVLink), then a ring across group leaders (Ray.SGD over InfiniBand), then
// an intra-group broadcast. After it returns every buffer holds the global
// elementwise sum. groupSize is the number of replicas per node.
func Hierarchical(bufs [][]float32, groupSize int) error {
	if groupSize < 1 {
		return fmt.Errorf("allreduce: groupSize must be ≥ 1, got %d", groupSize)
	}
	return reduceLocal(bufs, groupSize, false)
}

// HierarchicalAverage runs Hierarchical and divides by the replica count.
func HierarchicalAverage(bufs [][]float32, groupSize int) error {
	if groupSize < 1 {
		return fmt.Errorf("allreduce: groupSize must be ≥ 1, got %d", groupSize)
	}
	return reduceLocal(bufs, groupSize, true)
}
