package main

func on(w ...string) []string { return w }

// perLayer is the from-outside view of each module (layer = module). Each
// is taken in the traced run in one of three ways: the benchmark's own
// spans around calls into public functions, direct timed probe calls at
// the workload's shapes, or exact counts from public result structs and
// from the obs spans the program already emits through its Config.Trace
// fields. None has a bound; they explain a movement of an end-to-end
// metric, they do not gate.
var perLayer = []metricSpec{
	// tensor — probes at the largest hep-small conv lowering (16×256×144).
	{Name: "tensor.gemm_gflops_t1", Unit: "GFLOP/s", Better: "higher", On: on(wlHep, wlBulk)},
	{Name: "tensor.gemm_gflops_t2", Unit: "GFLOP/s", Better: "higher", On: on(wlHep, wlBulk)},
	{Name: "tensor.gemm_s8_gops_t1", Unit: "GOP/s", Better: "higher", On: on(wlBulk)},
	{Name: "tensor.parallelfor_us", Unit: "us", Better: "lower", On: on(wlHep, wlClimate)},
	{Name: "tensor.parallelfor_allocs", Unit: "count", Better: "lower", On: on(wlHep, wlClimate)},

	// nn — planned forward/backward probes; conv rows are the Fig. 5 table.
	{Name: "nn.hep_fwd_ms_b16", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_bwd_ms_b16", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv1_fwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv2_fwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv3_fwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv4_fwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv1_bwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv2_bwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv3_bwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_conv4_bwd_ms", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_train_gflops", Unit: "GFLOP/s", Better: "higher", On: on(wlHep)},
	{Name: "nn.step_allocs", Unit: "count", Better: "lower", On: on(wlHep)},
	{Name: "nn.hep_fwd_ms_b256", Unit: "ms", Better: "lower", On: on(wlBulk)},
	{Name: "nn.hep_int8_fwd_ms_b256", Unit: "ms", Better: "lower", On: on(wlBulk)},
	{Name: "nn.hep_tiny_fwd_us_b16", Unit: "us", Better: "lower", On: on(wlServe)},

	{Name: "climate.step_ms_b4", Unit: "ms", Better: "lower", On: on(wlClimate)},
	{Name: "climate.step_gflops", Unit: "GFLOP/s", Better: "higher", On: on(wlClimate)},

	{Name: "opt.adam_step_us_hep", Unit: "us", Better: "lower", On: on(wlHep)},
	{Name: "opt.adam_step_us_climate", Unit: "us", Better: "lower", On: on(wlClimate)},

	{Name: "comm.allreduce_us_hep_w2", Unit: "us", Better: "lower", On: on(wlHep)},

	// ps — exact counts from core.Result.Wire; train_hep_sync must read 0.
	{Name: "ps.push_ms_per_update", Unit: "ms", Better: "lower", On: on(wlClimate)},
	{Name: "ps.grad_wire_kb_per_update", Unit: "kB", Better: "lower", On: on(wlClimate)},
	{Name: "ps.weight_wire_kb_per_update", Unit: "kB", Better: "lower", On: on(wlClimate)},
	{Name: "ps.mean_staleness", Unit: "count", Better: "lower", On: on(wlClimate)},

	{Name: "data.read_batch_us_b16", Unit: "us", Better: "lower", On: on(wlHep)},
	{Name: "data.seq_read_mb_per_s", Unit: "MB/s", Better: "higher", On: on(wlBulk)},
	{Name: "data.stage_ms_per_iter", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "data.exposed_wait_ms_per_iter", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "data.overlap_frac", Unit: "frac", Better: "higher", On: on(wlHep)},

	{Name: "ckpt.stage_ms_per_snapshot", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "ckpt.write_ms_per_snapshot", Unit: "ms", Better: "lower", On: on(wlHep)},
	{Name: "ckpt.exposed_ms_per_snapshot", Unit: "ms", Better: "lower", On: on(wlHep)},

	// core — the self-time split that must account for any train_* change:
	// the five *_ms_per_iter sum to wall ÷ iterations.
	{Name: "core.fwd_ms_per_iter", Unit: "ms", Better: "lower", On: trainWorkloads},
	{Name: "core.bwd_ms_per_iter", Unit: "ms", Better: "lower", On: trainWorkloads},
	{Name: "core.commwait_ms_per_iter", Unit: "ms", Better: "lower", On: trainWorkloads},
	{Name: "core.optapply_ms_per_iter", Unit: "ms", Better: "lower", On: trainWorkloads},
	{Name: "core.self_ms_per_iter", Unit: "ms", Better: "lower", On: trainWorkloads},
	{Name: "core.allocs_per_iter", Unit: "count", Better: "lower", On: trainWorkloads},
	{Name: "core.updates_to_loss", Unit: "count", Better: "lower", On: trainWorkloads},
	{Name: "core.time_to_loss_s", Unit: "s", Better: "lower", On: on(wlHep)},
	{Name: "core.final_loss", Unit: "loss", Better: "lower", On: trainWorkloads},
	{Name: "core.w2_over_w1", Unit: "ratio", Better: "higher", On: on(wlHep)},

	{Name: "serve.mean_batch", Unit: "count", Better: "higher", On: on(wlServe)},
	{Name: "serve.duty_cycle", Unit: "frac", Better: "lower", On: on(wlServe)},
	{Name: "serve.queue_ms_per_batch", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "serve.infer_ms_per_batch", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "serve.submit_p50_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "serve.allocs_per_req", Unit: "count", Better: "lower", On: on(wlServe)},
	{Name: "serve.online_samples_per_s", Unit: "1/s", Better: "higher", On: on(wlBulk)},
	{Name: "serve.inferbatch_samples_per_s", Unit: "1/s", Better: "higher", On: on(wlBulk)},

	// netserve — the hops sum toward time_to_result_ms@serve_fleet.
	{Name: "netserve.encode_req_ns", Unit: "ns", Better: "lower", On: on(wlServe)},
	{Name: "netserve.decode_req_ns", Unit: "ns", Better: "lower", On: on(wlServe)},
	{Name: "netserve.direct_p50_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "netserve.routed_p50_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "netserve.router_hop_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "netserve.wire_hop_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "netserve.allocs_per_req", Unit: "count", Better: "lower", On: on(wlServe)},
	{Name: "netserve.bytes_per_req", Unit: "B", Better: "lower", On: on(wlServe)},
	{Name: "netserve.routed", Unit: "count", Better: "higher", On: on(wlServe)},
	{Name: "netserve.hedged", Unit: "count", Better: "lower", On: on(wlServe)},
	{Name: "netserve.shed", Unit: "count", Better: "lower", On: on(wlServe)},
	{Name: "netserve.retries", Unit: "count", Better: "lower", On: on(wlServe)},

	// client — the benchmark's own generator, listed so its cost is visible.
	{Name: "client.gen_late_ms_mean", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "client.open_p99_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "client.open_p999_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "client.closed_p50_ms", Unit: "ms", Better: "lower", On: on(wlServe)},
	{Name: "client.closed_p99_ms", Unit: "ms", Better: "lower", On: on(wlServe)},

	{Name: "bulk.batches", Unit: "count", Better: "lower", On: on(wlBulk)},
	{Name: "bulk.engine_over_inferbatch", Unit: "ratio", Better: "higher", On: on(wlBulk)},
	{Name: "bulk.int8_over_fp32", Unit: "ratio", Better: "higher", On: on(wlBulk)},

	{Name: "quant.int8_label_agreement", Unit: "frac", Better: "higher", On: on(wlBulk)},

	{Name: "obs.trace_overhead_frac", Unit: "frac", Better: "lower", On: allWorkloads},
	{Name: "obs.spans_per_iter", Unit: "count", Better: "lower", On: allWorkloads},
	{Name: "obs.dropped_spans", Unit: "count", Better: "lower", On: allWorkloads},

	{Name: "hep.generate_samples_per_s", Unit: "1/s", Better: "higher", On: on(wlHep, wlBulk)},
}
