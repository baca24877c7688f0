//! The repository benchmark: host wall time and simulated kernel cost of
//! the simulator on fixed workloads (see README.md in this directory).
//!
//! A plain run (`--trace 0`) runs one untimed warm-up, then calibrated
//! timed repeats for the requested seconds, then set-up samples, and
//! reports the end-to-end metrics. A traced run (`--trace 1`) runs the warm-up,
//! one untraced timed run, one run with spans around each phase, the
//! dprof-v2 counter run and the layer drivers, and reports the per-layer
//! metrics. Every run's output is checked.

pub mod alloc;
pub mod host;
pub mod layers;
pub mod names;
pub mod run;
pub mod trace;
pub mod workload;

use crate::run::{median, Finished, Outcome};
use crate::trace::Trace;
use crate::workload::{Bench, Setup, PINS};
use app::RunResult;
use metrics::json::Json;
use metrics::perf::KernelEntry;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up samples per plain run (`setup_s` is their median).
const SETUP_SAMPLES: usize = 21;
/// Calibration samples before each set-up sample.
const SETUP_CALIB_SAMPLES: usize = 4;
/// Calibration samples per `host.calib_ns` reading of a traced run.
const TRACE_CALIB_SAMPLES: usize = 16;

/// Where traced runs write their spans.
pub const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// One invocation's request.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload.
    pub bench: Bench,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed repeats (plain runs).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub traced: bool,
    /// 20 ms warm-up and measured windows instead of the workload's
    /// (for tests only: the metrics then describe a different run).
    pub short: bool,
}

/// Output-check accounting over every run an invocation makes.
#[derive(Debug, Default)]
pub struct Checks {
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed their check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one run's check; returns whether it passed.
    pub fn record(&mut self, what: &str, failure: Option<String>) -> bool {
        self.attempted += 1;
        match failure {
            None => true,
            Some(why) => {
                self.failed += 1;
                println!("CHECK FAILED: {what}: {why}");
                self.failures.push(format!("{what}: {why}"));
                false
            }
        }
    }
}

/// What one invocation measured.
#[derive(Debug)]
pub struct Report {
    /// Output-check accounting.
    pub checks: Checks,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let mut m = Json::obj();
        for (name, value, unit) in &self.metrics {
            m = m.field(
                name,
                Json::obj().field("value", *value).field("unit", *unit),
            );
        }
        Json::obj()
            .field("correct", self.checks.failed == 0)
            .field("attempted", self.checks.attempted)
            .field("failed", self.checks.failed)
            .field("metrics", m)
    }
}

/// Runs one invocation: the warm-up run, then the plain or traced run.
pub fn measure(opts: Opts) -> Report {
    let setup = opts.bench.setup(opts.seed, opts.short);
    let mut checks = Checks::default();
    let t0 = Instant::now();
    let warm = run::plain(&setup);
    let warm_s = t0.elapsed().as_secs_f64();
    let reference = warm.outcome();
    println!(
        "warm-up run (discarded): {warm_s:.3} s  fingerprint {:#018x}  events {}  served {}",
        reference.fingerprint, reference.events, reference.served
    );
    checks.record("warm-up run", run::audit(&reference));
    if opts.seed == 1 && !opts.short {
        let pin = PINS
            .iter()
            .find(|p| p.0 == opts.bench)
            .expect("every workload is pinned");
        let matches =
            (reference.fingerprint, reference.events, reference.served) == (pin.1, pin.2, pin.3);
        println!(
            "seed-1 pin: {}",
            if matches {
                "matches"
            } else {
                "DIFFERS (the workload or the simulator changed)"
            }
        );
    }
    let metrics = if opts.traced {
        drop(warm);
        traced(opts, &setup, &reference, &mut checks)
    } else {
        plain(opts, &setup, &warm, &reference, &mut checks)
    };
    Report { checks, metrics }
}

/// The cluster's template host run standalone: one host of its
/// per-host configuration, driven by its own open-loop arrivals at the
/// per-host rate. A cluster result carries no per-host counters, so the
/// simulated per-host metrics of the cluster workload come from here.
fn template_host(opts: Opts, checks: &mut Checks, dprof_v2: bool) -> RunResult {
    let mut cfg = opts.bench.host_config(opts.seed, opts.short);
    cfg.dprof_v2 = dprof_v2;
    let r = app::Runner::new(cfg).run();
    checks.record("template host run", run::audit(&Outcome::of_host(&r)));
    r
}

/// Simulated kernel cycles per request, summed over the Table-3 entries.
fn kernel_cycles_per_req(r: &RunResult) -> f64 {
    KernelEntry::ALL
        .iter()
        .map(|&e| r.perf.per_request(e).0)
        .sum()
}

/// Timed repeats and set-up samples: the end-to-end metrics.
fn plain(
    opts: Opts,
    setup: &Setup,
    warm: &Finished,
    reference: &Outcome,
    checks: &mut Checks,
) -> Vec<(String, f64, &'static str)> {
    // The process peak through the warm-up run.
    let peak_rss_mb = host::peak_rss_mb().unwrap_or(f64::NAN);
    let mut calib = host::Calib::new();
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut calibs = Vec::new();
    // Each repeat's time is scaled by the calibration samples taken
    // during it (see `run::timed` and `host::scale`).
    let mut scaled = Vec::new();
    let mut oks = Vec::new();
    loop {
        let t = run::timed(setup, Some(&mut calib));
        let out = t.finished.outcome();
        let failure = run::check(reference, &out);
        let passed = checks.record(&format!("repeat {}", walls.len() + 1), failure);
        oks.push(if passed { out.ok_frac() } else { 0.0 });
        walls.push(t.wall_s);
        calibs.push(t.calib_ns);
        scaled.push(t.wall_s * host::scale(t.calib_ns));
        println!(
            "repeat {}: setup {:.4} s  run {:.3} s  calib {:.2} ns/access  scaled run {:.3} s",
            walls.len(),
            t.setup_s,
            t.wall_s,
            t.calib_ns,
            scaled[scaled.len() - 1]
        );
        // Another repeat runs if at least half of it fits in the
        // requested seconds, so the timed repeats take about that long.
        if start.elapsed().as_secs_f64() + median(&walls) / 2.0 > opts.seconds {
            break;
        }
    }
    // Each set-up sample is scaled by the calibration samples just
    // before it.
    let mut setups = Vec::new();
    let mut setups_scaled = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let c = calib.mean_ns(SETUP_CALIB_SAMPLES);
        let s = run::setup_only(setup);
        setups.push(s);
        setups_scaled.push(s * host::scale(c));
    }
    let cycles = match warm {
        Finished::Host(r) => kernel_cycles_per_req(r),
        Finished::Cluster(_) => kernel_cycles_per_req(&template_host(opts, checks, false)),
    };
    let wall = median(&scaled);
    let setup_s = median(&setups_scaled);
    println!(
        "{} repeats; raw median run {:.3} s, setup {:.4} s; calibration median {:.2} ns/access \
         (reference {}); scaled run {wall:.3} s, setup {setup_s:.4} s",
        walls.len(),
        median(&walls),
        median(&setups),
        median(&calibs),
        host::REF_CALIB_NS,
    );
    println!(
        "fingerprint {:#018x} events {} served {}",
        reference.fingerprint, reference.events, reference.served
    );
    vec![
        ("wall_s".into(), wall, "s"),
        (
            "req_per_wall_s".into(),
            reference.served as f64 / wall,
            "1/s",
        ),
        ("setup_s".into(), setup_s, "s"),
        ("peak_rss_mb".into(), peak_rss_mb, "MiB"),
        ("sim_kernel_cycles_per_req".into(), cycles, "cycles"),
        (
            "ok_frac".into(),
            oks.iter().sum::<f64>() / oks.len() as f64,
            "fraction",
        ),
    ]
}

/// The traced run, the dprof-v2 run and the layer drivers: the
/// per-layer metrics.
fn traced(
    opts: Opts,
    setup: &Setup,
    reference: &Outcome,
    checks: &mut Checks,
) -> Vec<(String, f64, &'static str)> {
    let mut tr = Trace::new();
    let mut calib = host::Calib::new();
    let mut calib_span = |tr: &mut Trace| {
        tr.span("host.calib", |_| calib.mean_ns(TRACE_CALIB_SAMPLES))
            .0
    };
    let mut calibs = vec![calib_span(&mut tr)];
    // Untraced timing of the same run, for the tracing overhead and the
    // allocation counts.
    let (plain_run, _) = tr.span("app.untraced_run", |_| run::timed(setup, None));
    checks.record(
        "untraced run",
        run::check(reference, &plain_run.finished.outcome()),
    );
    calibs.push(calib_span(&mut tr));
    let (traced_fin, traced_s) = run::traced(setup, &mut tr);
    checks.record("traced run", run::check(reference, &traced_fin.outcome()));
    let app_spans: BTreeMap<&str, f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("app."))
        .map(|s| (s.name.as_str(), (s.end_ns - s.start_ns) as f64 * 1e-9))
        .collect();
    let (warmup_s, measure_s) = match setup {
        Setup::Host(_) => (app_spans["app.warmup"], app_spans["app.measure"]),
        Setup::Cluster(_) => {
            let warm_only = workload::warmup_only(setup);
            let (t, _) = tr.span("app.warmup_only_run", |_| run::timed(&warm_only, None));
            checks.record("warm-up-only run", run::audit(&t.finished.outcome()));
            (t.wall_s, traced_s - t.wall_s)
        }
    };
    // The dprof-v2 ledger is an observer: the run must reproduce the
    // reference exactly.
    let (v2, _) = tr.span("mem.dprof_v2_run", |_| {
        run::plain(&workload::with_dprof_v2(setup))
    });
    checks.record("dprof-v2 run", run::check(reference, &v2.outcome()));
    let (served_imbalance, retry_amplification) = match &v2 {
        Finished::Host(_) => (1.0, 1.0),
        Finished::Cluster(c) => {
            let served: Vec<f64> = c.per_host.iter().map(|h| h.served as f64).collect();
            let mean = served.iter().sum::<f64>() / served.len() as f64;
            let max = served.iter().copied().fold(0.0, f64::max);
            (max / mean, c.retry_amplification)
        }
    };
    let h = match v2 {
        Finished::Host(r) => *r,
        Finished::Cluster(_) => {
            tr.span("app.template_host_run", |_| {
                template_host(opts, checks, true)
            })
            .0
        }
    };
    let ls = h.listen_stats;
    let accepts = ls.accepts_local + ls.accepts_stolen;
    let local_frac = ls.accepts_local as f64 / accepts.max(1) as f64;
    let shape = layers::Shape::new(
        &opts.bench.host_config(opts.seed, opts.short),
        local_frac,
        h.audit.events_pending,
        h.events_executed,
    );
    let driven = layers::drive_all(&shape, &mut tr);
    calibs.push(calib_span(&mut tr));

    let served = reference.served.max(1) as f64;
    let line = h.cacheline.totals();
    let h_served = h.served.max(1) as f64;
    let requests = h.perf.requests.max(1) as f64;
    let calls: u64 = KernelEntry::ALL
        .iter()
        .map(|&e| h.perf.entry(e).calls)
        .sum();
    let mut m: BTreeMap<String, f64> = BTreeMap::from([
        ("app.warmup_s".to_string(), warmup_s),
        ("app.measure_s".to_string(), measure_s),
        ("app.idle_frac".to_string(), h.idle_frac),
        (
            "app.allocs_per_req".to_string(),
            plain_run.allocs as f64 / served,
        ),
        (
            "app.alloc_bytes_per_req".to_string(),
            plain_run.alloc_bytes as f64 / served,
        ),
        (
            "sim.events_per_req".to_string(),
            reference.events as f64 / served,
        ),
        (
            "sim.ns_per_event".to_string(),
            plain_run.wall_s * 1e9 / reference.events.max(1) as f64,
        ),
        (
            "sim.pending_events".to_string(),
            h.audit.events_pending as f64,
        ),
        (
            "mem.touches_per_req".to_string(),
            line.touches as f64 / h_served,
        ),
        (
            "mem.fill_frac".to_string(),
            line.fills as f64 / line.touches.max(1) as f64,
        ),
        (
            "mem.bytes_fetched_per_req".to_string(),
            line.bytes_fetched as f64 / h_served,
        ),
        (
            "mem.wasted_bytes_per_req".to_string(),
            line.bytes_wasted as f64 / h_served,
        ),
        ("listen.local_accept_frac".to_string(), local_frac),
        (
            "listen.flow_migrations".to_string(),
            ls.flow_migrations as f64,
        ),
        ("listen.overflow_drops".to_string(), h.drops_overflow as f64),
        ("tcp.calls_per_req".to_string(), calls as f64 / requests),
        (
            "tcp.l2_misses_per_req".to_string(),
            h.perf.total_l2_misses() as f64 / requests,
        ),
        ("nic.wire_util".to_string(), h.wire_util),
        ("nic.drops".to_string(), h.drops_nic as f64),
        ("cluster.served_imbalance".to_string(), served_imbalance),
        (
            "cluster.retry_amplification".to_string(),
            retry_amplification,
        ),
        ("host.calib_ns".to_string(), median(&calibs)),
        (
            "trace.overhead_frac".to_string(),
            traced_s / plain_run.wall_s - 1.0,
        ),
    ]);
    for e in KernelEntry::ALL {
        m.insert(names::entry_metric(e), h.perf.per_request(e).0);
    }
    m.extend(driven);

    println!("self time by layer (traced run, drivers and counter runs):");
    for (layer, secs) in tr.self_time_by_layer() {
        println!("  {layer:<8} {secs:>9.3} s");
    }
    write_trace(opts, reference, &tr);
    names::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = m
                .remove(&name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            (name, v, unit)
        })
        .collect()
}

/// Writes the traced run's spans and self times under [`TRACE_DIR`].
fn write_trace(opts: Opts, reference: &Outcome, tr: &Trace) {
    let mut header = Json::obj()
        .field("workload", opts.bench.name())
        .field("seed", opts.seed)
        .field("fingerprint", format!("{:#018x}", reference.fingerprint));
    for (k, v) in host::identity() {
        header = header.field(k, v);
    }
    let path = format!(
        "{TRACE_DIR}/trace-{}-seed{}.json",
        opts.bench.name(),
        opts.seed
    );
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, tr.to_json(header).render() + "\n"));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", tr.spans().len()),
        Err(e) => println!("trace: not written ({path}: {e})"),
    }
}
