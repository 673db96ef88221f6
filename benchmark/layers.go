package main

// perLayer are the traced run's metrics, in reporting order. Every
// traced run reports all of them: the micro-call ladder runs on every
// workload, and a workload-level layer metric the workload does not
// exercise reads 0 (printed as n/a). README.md maps each one to the
// end-to-end metric and workload it should move.
var perLayer = buildPerLayer()

// ladderMetrics lists the micro-call ladder's rungs with their units;
// ladderRungs builds them in this order.
var ladderMetrics = []metricDef{
	{"tensor.matmul.mlp", "ns"},
	{"tensor.matmul_abt.mlp", "ns"},
	{"tensor.matmul_atb.mlp", "ns"},
	{"tensor.matmul.cnn", "ns"},
	{"tensor.matmul_abt.cnn", "ns"},
	{"tensor.matmul_atb.cnn", "ns"},
	{"tensor.im2col.cnn", "ns"},
	{"tensor.col2im.cnn", "ns"},
	{"nn.forward.mlp", "us"},
	{"nn.backward.mlp", "us"},
	{"nn.forward.cnn", "us"},
	{"nn.backward.cnn", "us"},
	{"algo.compute.mlp", "ms"},
	{"algo.compute.cnn", "ms"},
	{"algo.act.mlp", "us"},
	{"algo.act.cnn", "us"},
	{"optim.step.mlp", "us"},
	{"env.step.hopper", "ns"},
	{"env.step.invaders", "ns"},
	{"cache.encode_traj", "us"},
	{"cache.decode_traj", "us"},
	{"cache.encode_grad", "us"},
	{"cache.decode_grad", "us"},
	{"cache.build_delta", "us"},
	{"cache.apply_delta", "us"},
	{"stale.combine", "us"},
	{"simclock.event", "ns"},
}

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, m := range ladderMetrics {
		out = append(out, metricDef{m.name + "." + m.unit, m.unit}, metricDef{m.name + ".p99_" + m.unit, m.unit})
	}
	out = append(out,
		metricDef{"stale.aggregated_fraction", "fraction"},
		metricDef{"stale.mean_staleness", "versions"},
		metricDef{"core.learner_utilization", "fraction"},
		metricDef{"core.invocations_per_update", "count"},
		metricDef{"core.cold_starts", "count"},
		metricDef{"env.steps_per_update", "count"},
		metricDef{"env.self_share", "fraction"},
	)
	for _, op := range mixOpNames {
		stem := "cache.op." + op
		out = append(out, metricDef{stem + ".p50_us", "us"}, metricDef{stem + ".p99_us", "us"}, metricDef{stem + ".share", "fraction"})
	}
	out = append(out,
		metricDef{"cache.bytes_per_update", "B"},
		metricDef{"cache.ops_per_update", "count"},
		metricDef{"cache.sub.delta_hit_fraction", "fraction"},
		metricDef{"cache.replica.records_per_update", "count"},
		metricDef{"cache.retries", "count"},
		metricDef{"cache.failovers", "count"},
		metricDef{"live.shed_fraction", "fraction"},
		metricDef{"live.trajectories_per_update", "count"},
		metricDef{"live.mean_staleness", "versions"},
		metricDef{"live.wire_bytes_per_update", "B"},
		metricDef{"live.server_busy_share", "fraction"},
		metricDef{"live.fault_drops", "count"},
		metricDef{"live.stale_weight_reuses", "count"},
	)
	for _, l := range profLayers {
		out = append(out, metricDef{"prof." + l + ".share", "fraction"})
	}
	return append(out,
		metricDef{"gc.cpu_fraction", "fraction"},
		metricDef{"trace.overhead_fraction", "fraction"},
	)
}
