// Package repro is a pure-Go reproduction of "Distributing Deep Learning
// Hyperparameter Tuning for 3D Medical Image Segmentation" (Berral et al.,
// IPDPS 2022, arXiv:2110.15884).
//
// The library lives under internal/: a float32 tensor engine with
// zero-copy views and a pooled scratch-buffer allocator, the fork-join
// worker pool, a cache-blocked register-tiled GEMM microkernel with
// pluggable panel packing and the 3D CNN layers running on either the
// im2col+GEMM or the direct convolution engine (tensor, parallel, gemm,
// nn — the GEMM path never materializes a patch matrix: the forward and
// backward-weights GEMMs stream patches from a zero-bordered copy of the
// input into the packing panels, and backward-weights reduces per-sample
// partial products so its parallelism scales with the batch;
// REPRO_CONV_ENGINE=gemm|direct selects the engine), the paper's 3D U-Net (unet), Dice losses and optimizers (loss, optim, metrics), the data path
// from NIfTI phantoms to TFRecords and tf.Data-style pipelines (msd, nifti,
// volume, record, pipeline), the unified training-orchestration
// layer — one Session loop over pluggable strategies with an ordered
// callback chain and bit-exact checkpoint/resume (train, ckpt) — the
// distribution layer selecting and driving those strategies with resumable
// hyper-parameter campaigns (allreduce, mirrored, raysgd, tune, cluster)
// — allreduce has one ring, flat or hierarchical, run over in-process
// pipe links or a TCP transport; mirrored runs one data-parallel step per
// rank, W ranks over pipes in one process or one rank per process over TCP
// with bitwise the same result, and dist adds the fault-tolerant
// coordinator/worker layer on top: elastic membership with heartbeats and
// generations, step-granular session checkpoints, and recovery that
// resumes survivors (or a rejoined worker) from the last checkpoint with
// bit-for-bit the uninterrupted run's final parameters — the MareNostrum
// performance model and discrete-event simulator regenerating the paper's
// Table I and Figure 4 plus deterministic network-fault injection for the
// TCP transport (gpusim, netsim, perfmodel, simsched, experiments), the
// unified observability layer — a process-wide lock-free metrics registry
// with Prometheus text exposition, a never-blocking JSONL trace-event
// stream, and pprof mounting, instrumented through train/serve/allreduce/
// dist/tensor and surfaced by the binaries' /metrics, -trace and
// -metrics-addr flags, with span aggregation for pipeline profiling
// (telemetry)
// — and the DistMIS facade (core).
//
// See README.md for a tour and PAPER.md for the source-paper summary.
// Executables live in cmd/ and runnable examples in examples/.
package repro
