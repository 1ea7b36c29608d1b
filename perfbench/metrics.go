package main

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/unet"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them (see README.md for what each means per workload), so
// they are defined over the unit of work each workload completes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "ratio"},
}

// convMetricName renders a paper conv shape and pass as
// nn.<op>k<K>_<in>-<out>.<pass>_ms.
func convMetricName(s nn.ConvSpec, pass string) string {
	op := "conv"
	if s.Transposed {
		op = "convT"
	}
	return fmt.Sprintf("nn.%sk%d_%d-%d.%s_ms", op, s.Kernel, s.InC, s.OutC, pass)
}

// perLayer lists every metric of the traced run in output order. A workload
// reports 0 for a layer it does not run.
func perLayer() []metricDef {
	var defs []metricDef
	for _, pass := range []string{"fwd", "bwd", "infer"} {
		for _, s := range unet.PaperConfig().ConvShapes() {
			defs = append(defs, metricDef{convMetricName(s, pass), "ms"})
		}
	}
	for _, name := range []string{"nn.norm_act.fwd_ms", "nn.norm_act.bwd_ms", "nn.pool.fwd_ms", "nn.pool.bwd_ms"} {
		defs = append(defs, metricDef{name, "ms"})
	}
	for _, name := range []string{"nn.conv.fwd_gflops", "nn.conv.bwd_gflops", "nn.conv.infer_gflops", "gemm.peak_gflops"} {
		defs = append(defs, metricDef{name, "GFLOP/s"})
	}
	defs = append(defs,
		metricDef{"train.step_ms.p50", "ms"},
		metricDef{"train.step_ms.p90", "ms"},
		metricDef{"train.forward_ms", "ms"},
		metricDef{"train.backward_ms", "ms"},
		metricDef{"train.optim_ms", "ms"},
		metricDef{"train.loop_ms", "ms"},
		metricDef{"train.eval_ms", "ms"},
		metricDef{"loss.eval_ms", "ms"},
		metricDef{"tune.trial_s.p50", "s"},
		metricDef{"tune.slot_busy_frac", "ratio"},
		metricDef{"tune.report_wait_ms", "ms"},
		metricDef{"ckpt.save_ms", "ms"},
		metricDef{"ckpt.bytes", "B"},
		metricDef{"mirrored.allreduce_ms", "ms"},
		metricDef{"mirrored.allreduce_share", "ratio"},
		metricDef{"allreduce.tx_bytes_per_step", "B"},
		metricDef{"allreduce.tx_frames_per_step", "count"},
		metricDef{"allreduce.payload_ratio", "ratio"},
		metricDef{"dist.form_ms", "ms"},
		metricDef{"dist.step_ms.p50", "ms"},
		metricDef{"tensor.step_alloc_mb", "MB"},
		metricDef{"tensor.step_allocs", "count"},
		metricDef{"tensor.scratch_fresh_per_step", "count"},
		metricDef{"runtime.gc_cpu_frac", "ratio"},
		metricDef{"tensor.req_alloc_mb", "MB"},
		metricDef{"serve.queue_ms.p50", "ms"},
		metricDef{"serve.queue_ms.p90", "ms"},
		metricDef{"serve.dispatch_ms.p90", "ms"},
		metricDef{"serve.compute_ms.p50", "ms"},
		metricDef{"serve.compute_ms.p90", "ms"},
		metricDef{"serve.blend_ms.p90", "ms"},
		metricDef{"serve.batch_fill", "ratio"},
		metricDef{"msd.generate_ms_per_case", "ms"},
		metricDef{"volume.preprocess_ms_per_case", "ms"},
		metricDef{"gen.late_ms.max", "ms"},
	)
	// Tracing overhead: the traced pass's end-to-end numbers minus those of
	// the untraced pass made in the same process.
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}
