//! The metric names and units the benchmark reports; `BENCHMARK.json`
//! lists exactly these (a test checks it).

use metrics::perf::KernelEntry;

/// End-to-end metrics (reported with `--trace 0`): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("req_per_wall_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_kernel_cycles_per_req", "cycles"),
    ("ok_frac", "fraction"),
];

/// Per-layer metrics other than the per-entry and per-op ones, in report
/// order: `(name, unit)`.
const LAYER_FIXED: [(&str, &str); 25] = [
    ("app.warmup_s", "s"),
    ("app.measure_s", "s"),
    ("app.idle_frac", "fraction"),
    ("app.allocs_per_req", "count"),
    ("app.alloc_bytes_per_req", "B"),
    ("sim.events_per_req", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.pending_events", "count"),
    ("sim.queue.ns_per_op", "ns"),
    ("mem.touches_per_req", "count"),
    ("mem.fill_frac", "fraction"),
    ("mem.bytes_fetched_per_req", "B"),
    ("mem.wasted_bytes_per_req", "B"),
    ("mem.cache.ns_per_access", "ns"),
    ("listen.local_accept_frac", "fraction"),
    ("listen.flow_migrations", "count"),
    ("listen.overflow_drops", "count"),
    ("listen.on_syn.ns", "ns"),
    ("listen.on_ack.ns", "ns"),
    ("listen.try_accept.ns", "ns"),
    ("tcp.calls_per_req", "count"),
    ("tcp.l2_misses_per_req", "count"),
    ("nic.wire_util", "fraction"),
    ("nic.drops", "count"),
    ("nic.route.ns", "ns"),
];

/// Per-layer metrics after the `tcp` ones.
const LAYER_TAIL: [(&str, &str); 4] = [
    ("cluster.served_imbalance", "ratio"),
    ("cluster.retry_amplification", "ratio"),
    ("host.calib_ns", "ns"),
    ("trace.overhead_frac", "fraction"),
];

/// The `tcp::ops` functions the tcp driver times, in call order.
pub const TCP_OPS: [&str; 7] = [
    "syn",
    "ack_establish",
    "accept_established",
    "data_rx",
    "sys_read",
    "sys_writev",
    "sys_close",
];

/// `tcp.<entry>.cycles_per_req` for one Table-3 kernel entry.
pub fn entry_metric(e: KernelEntry) -> String {
    format!("tcp.{}.cycles_per_req", e.label().replace(' ', "_"))
}

/// `tcp.<op>.ns` for one driven `tcp::ops` function.
pub fn op_metric(op: &str) -> String {
    format!("tcp.{op}.ns")
}

/// Every per-layer metric (reported with `--trace 1`), in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    v.extend(
        KernelEntry::ALL
            .iter()
            .map(|&e| (entry_metric(e), "cycles")),
    );
    v.extend(TCP_OPS.iter().map(|op| (op_metric(op), "ns")));
    v.extend(LAYER_TAIL.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}
