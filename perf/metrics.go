package main

import "fmt"

// metricDef names a metric and its unit. The two tables below are the
// program's side of BENCHMARK.json: a run emits exactly the names of
// one table, and the tests hold the tables and the file to each other.
type metricDef struct{ name, unit string }

// endToEnd are what a user of the system pays: wall-clock, host
// memory and fidelity. A run with --trace 0 emits all of them.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_footprint_bytes", "B"},
	{"retained_heap_bytes", "B"},
	{"fidelity_lower_bound", "1"},
	{"fidelity_measured", "1"},
}

// perLayer are the numbers of single layers. A run with --trace 1
// emits all of them; a layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"quantum.build_s", "s"},
	{"quantum.plan_s", "s"},
	{"quantum.gates", "count"},
	{"quantum.sweeps", "count"},
	{"quantum.sweep_gates", "count"},

	{"compress.lossless.enc_calls", "count"},
	{"compress.lossless.dec_calls", "count"},
	{"compress.lossless.enc_busy_s", "s"},
	{"compress.lossless.dec_busy_s", "s"},
	{"compress.lossless.enc_mbps", "MB/s"},
	{"compress.lossless.dec_mbps", "MB/s"},
	{"compress.lossless.ratio", "1"},
	{"compress.lossy.enc_calls", "count"},
	{"compress.lossy.dec_calls", "count"},
	{"compress.lossy.enc_busy_s", "s"},
	{"compress.lossy.dec_busy_s", "s"},
	{"compress.lossy.enc_mbps", "MB/s"},
	{"compress.lossy.dec_mbps", "MB/s"},
	{"compress.lossy.ratio", "1"},
	{"compress.lossy.bound_violations", "count"},
	{"compress.lossy.l1.enc_mbps", "MB/s"},
	{"compress.lossy.l1.dec_mbps", "MB/s"},
	{"compress.lossy.l1.ratio", "1"},
	{"compress.lossy.l2.enc_mbps", "MB/s"},
	{"compress.lossy.l2.dec_mbps", "MB/s"},
	{"compress.lossy.l2.ratio", "1"},
	{"compress.lossy.l3.enc_mbps", "MB/s"},
	{"compress.lossy.l3.dec_mbps", "MB/s"},
	{"compress.lossy.l3.ratio", "1"},
	{"compress.lossy.l4.enc_mbps", "MB/s"},
	{"compress.lossy.l4.dec_mbps", "MB/s"},
	{"compress.lossy.l4.ratio", "1"},
	{"compress.lossy.l5.enc_mbps", "MB/s"},
	{"compress.lossy.l5.dec_mbps", "MB/s"},
	{"compress.lossy.l5.ratio", "1"},

	{"core.kernel_s", "s"},
	{"core.kernel_ns_per_amp", "ns"},
	{"core.self_s", "s"},
	{"core.unattributed_s", "s"},
	{"core.unattributed_frac", "1"},
	{"core.cache_lookups", "count"},
	{"core.cache_hit_ratio", "1"},
	{"core.codec_passes_saved", "count"},
	{"core.codec_passes_shared", "count"},
	{"core.variants", "count"},
	{"core.escalations", "count"},
	{"core.final_level", "count"},
	{"core.sampler.build_s", "s"},
	{"core.sampler.draw_s", "s"},
	{"core.sampler.dec_calls", "count"},
	{"core.checkpoint.save_mbps", "MB/s"},
	{"core.checkpoint.load_mbps", "MB/s"},

	{"blockstore.ram.put_ns", "ns"},
	{"blockstore.ram.get_ns", "ns"},
	{"blockstore.tiered.put_ns", "ns"},
	{"blockstore.tiered.get_demand_ns", "ns"},
	{"blockstore.tiered.get_prefetched_ns", "ns"},
	{"blockstore.spill_writes", "count"},
	{"blockstore.spill_reads", "count"},
	{"blockstore.prefetch_reads", "count"},
	{"blockstore.prefetch_hit_ratio", "1"},
	{"blockstore.max_resident_bytes", "B"},
	{"blockstore.spilled_bytes", "B"},

	{"mpi.sendrecv_calls", "count"},
	{"mpi.sendrecv_busy_s", "s"},
	{"mpi.collective_calls", "count"},
	{"mpi.collective_busy_s", "s"},
	{"mpi.bytes_moved", "B"},
	{"mpi.inproc.sendrecv_us", "us"},
	{"mpi.inproc.allreduce_us", "us"},
	{"mpi.tcp.sendrecv_us", "us"},
	{"mpi.tcp.allreduce_us", "us"},
	{"distrib.tcp_overhead_s", "s"},

	{"server.admit_p50_s", "s"},
	{"server.queue_run_p50_s", "s"},
	{"server.sample_p50_s", "s"},
	{"server.suspend_p50_s", "s"},
	{"server.resume_p50_s", "s"},
	{"server.rejects", "count"},
	{"server.jobs", "count"},
	{"server.job_tail_pct", "%"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},

	{"qcsim.new_s", "s"},
	{"qcsim.prepare_s", "s"},
	{"qcsim.run_median_s", "s"},
	{"qcsim.run_cpu_s", "s"},
	{"qcsim.serial_run_s", "s"},
	{"qcsim.parallel_speedup", "1"},
	{"qcsim.allocs_per_run", "count"},
	{"qcsim.alloc_bytes_per_run", "B"},
	{"qcsim.amp_updates_per_s", "1/s"},
	{"sample_shots_per_s", "1/s"},

	{"trace.overhead_frac", "1"},
	{"failed_frac", "1"},
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one table. Names outside the table
// are a bug in the benchmark, so set panics on them; names never set
// come out as 0 — the layer was not on this workload's path.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("perf: metric %q is not declared", name))
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

func (m *metricSet) result() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}
