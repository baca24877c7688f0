//! Running a workload once — timed, traced or plain — and checking its
//! output.

use crate::alloc;
use crate::host::Calib;
use crate::trace::Trace;
use crate::workload::Setup;
use app::{ClusterResult, ClusterRunner, RunResult, Runner};
use std::time::{Duration, Instant};

/// The simulated output of one run: what the output checks compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Run fingerprint (order-sensitive hash of the event stream).
    pub fingerprint: u64,
    /// Events dispatched.
    pub events: u64,
    /// Requests served in the measurement window.
    pub served: u64,
    /// Conservation-audit violations (empty when clean).
    pub violations: Vec<String>,
    /// Simulated client connections started.
    pub conns_attempted: u64,
    /// Simulated connections that timed out, were dropped or were lost.
    pub conns_failed: u64,
}

impl Outcome {
    /// A single host's outcome. Failures: client timeouts, accept-queue
    /// overflow drops and NIC drops, over the whole run.
    pub fn of_host(r: &RunResult) -> Self {
        let a = &r.audit;
        Self {
            fingerprint: r.fingerprint,
            events: r.events_executed,
            served: r.served,
            violations: a.violations(),
            conns_attempted: a.client.started,
            conns_failed: a.client.timed_out
                + a.listen.dropped_overflow
                + a.packets.drops_ring_full
                + a.packets.drops_flush,
        }
    }

    /// A cluster's outcome. Failures: client timeouts, connections
    /// stranded by a host, and LB deliveries that found no route or were
    /// lost in the fabric.
    pub fn of_cluster(r: &ClusterResult) -> Self {
        Self {
            fingerprint: r.fingerprint,
            events: r.events_executed,
            served: r.served,
            violations: r.audit.violations(),
            conns_attempted: r.stats.arrivals,
            conns_failed: r.timeouts + r.stranded + r.stats.no_route + r.stats.fabric_lost,
        }
    }

    /// Share of attempted connections that did not fail.
    pub fn ok_frac(&self) -> f64 {
        if self.conns_attempted == 0 {
            return 0.0;
        }
        1.0 - self.conns_failed.min(self.conns_attempted) as f64 / self.conns_attempted as f64
    }
}

/// Why `run` fails its conservation audit, or `None` when it is clean.
pub fn audit(run: &Outcome) -> Option<String> {
    let v = run.violations.first()?;
    Some(format!(
        "audit: {v} ({} violation(s))",
        run.violations.len()
    ))
}

/// Why `run` fails its output check against `reference` (a run of the
/// same configuration and seed), or `None` when it passes: its audit
/// must be clean and its fingerprint, event count and served count must
/// equal the reference's.
pub fn check(reference: &Outcome, run: &Outcome) -> Option<String> {
    if let Some(why) = audit(run) {
        return Some(why);
    }
    if run.fingerprint != reference.fingerprint {
        return Some(format!(
            "fingerprint {:#018x} != reference {:#018x}",
            run.fingerprint, reference.fingerprint
        ));
    }
    if run.events != reference.events {
        return Some(format!(
            "events {} != reference {}",
            run.events, reference.events
        ));
    }
    if run.served != reference.served {
        return Some(format!(
            "served {} != reference {}",
            run.served, reference.served
        ));
    }
    None
}

/// What a finished run returned.
pub enum Finished {
    /// A single host's result.
    Host(Box<RunResult>),
    /// A cluster's result.
    Cluster(Box<ClusterResult>),
}

impl Finished {
    /// The checked output.
    pub fn outcome(&self) -> Outcome {
        match self {
            Finished::Host(r) => Outcome::of_host(r),
            Finished::Cluster(r) => Outcome::of_cluster(r),
        }
    }
}

/// Host time between two calibration samples of a calibrated run.
pub const CALIB_EVERY: Duration = Duration::from_millis(50);

/// One run with its host-side costs.
pub struct Timed {
    /// The result.
    pub finished: Finished,
    /// Host seconds in `Runner::new` / `ClusterRunner::new`.
    pub setup_s: f64,
    /// Host seconds in `Runner::run` / `ClusterRunner::run`.
    pub wall_s: f64,
    /// Mean calibration sample taken during the run (ns per access), or
    /// NaN when the run was not calibrated.
    pub calib_ns: f64,
    /// Heap allocations during set-up and run.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// Builds and runs `setup` once, timing set-up and run separately.
/// With `calib`, the run is calibrated: samples are taken every
/// [`CALIB_EVERY`] while it runs (`Calib::during`), and their time is
/// left out of `wall_s`. A run too short for one sample gets one right
/// after it.
pub fn timed(setup: &Setup, calib: Option<&mut Calib>) -> Timed {
    let setup = setup.clone();
    let (a0, b0) = alloc::snapshot();
    let t0 = Instant::now();
    let (run, setup_s): (Box<dyn FnOnce() -> Finished>, f64) = match setup {
        Setup::Host(cfg) => {
            let r = Runner::new(cfg);
            let setup_s = t0.elapsed().as_secs_f64();
            (Box::new(move || Finished::Host(Box::new(r.run()))), setup_s)
        }
        Setup::Cluster(cfg) => {
            let r = ClusterRunner::new(cfg);
            let setup_s = t0.elapsed().as_secs_f64();
            (
                Box::new(move || Finished::Cluster(Box::new(r.run()))),
                setup_s,
            )
        }
    };
    let t1 = Instant::now();
    let (finished, wall_s, calib_ns) = match calib {
        Some(c) => {
            let (finished, mut samples, spent) = c.during(CALIB_EVERY, run);
            let wall_s = t1.elapsed().as_secs_f64() - spent;
            if samples.is_empty() {
                samples.push(c.sample_ns());
            }
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            (finished, wall_s, mean)
        }
        None => (run(), t1.elapsed().as_secs_f64(), f64::NAN),
    };
    let (a1, b1) = alloc::snapshot();
    Timed {
        finished,
        setup_s,
        wall_s,
        calib_ns,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Host seconds of one set-up (`Runner::new` / `ClusterRunner::new`).
/// A host set-up is shut down untimed afterwards, which returns its
/// event queue to the runner's pool the way a finished run does, so
/// repeated samples see the same pool state.
pub fn setup_only(setup: &Setup) -> f64 {
    let setup = setup.clone();
    let t0 = Instant::now();
    match setup {
        Setup::Host(cfg) => {
            let r = Runner::new(cfg);
            let s = t0.elapsed().as_secs_f64();
            drop(r.shutdown());
            s
        }
        Setup::Cluster(cfg) => {
            let r = ClusterRunner::new(cfg);
            let s = t0.elapsed().as_secs_f64();
            drop(r);
            s
        }
    }
}

/// The traced run: spans around set-up, the warm-up and the measured
/// window. A cluster cannot be stopped between the two from outside, so
/// its run is one `app.run` span. Returns the result and the host
/// seconds spent running (set-up excluded).
pub fn traced(setup: &Setup, trace: &mut Trace) -> (Finished, f64) {
    let setup = setup.clone();
    trace.begin("app.traced_run", None);
    let (finished, run_s) = match setup {
        Setup::Host(cfg) => {
            let warm_end = cfg.start_at + cfg.warmup;
            let (mut r, _) = trace.span("app.setup", |_| Runner::new(cfg));
            let ((), warm_s) = trace.span("app.warmup", |_| r.run_until(warm_end));
            let (res, measure_s) = trace.span("app.measure", |_| r.run());
            (Finished::Host(Box::new(res)), warm_s + measure_s)
        }
        Setup::Cluster(cfg) => {
            let (r, _) = trace.span("app.setup", |_| ClusterRunner::new(cfg));
            let (res, run_s) = trace.span("app.run", |_| r.run());
            (Finished::Cluster(Box::new(res)), run_s)
        }
    };
    trace.end();
    (finished, run_s)
}

/// Runs `setup` once, untimed.
pub fn plain(setup: &Setup) -> Finished {
    match setup.clone() {
        Setup::Host(cfg) => Finished::Host(Box::new(Runner::new(cfg).run())),
        Setup::Cluster(cfg) => Finished::Cluster(Box::new(ClusterRunner::new(cfg).run())),
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> Outcome {
        Outcome {
            fingerprint: 0xfeed,
            events: 100,
            served: 10,
            violations: Vec::new(),
            conns_attempted: 4,
            conns_failed: 1,
        }
    }

    #[test]
    fn identical_repeat_passes() {
        assert_eq!(check(&clean(), &clean()), None);
    }

    #[test]
    fn flipped_fingerprint_fails() {
        let mut run = clean();
        run.fingerprint ^= 1 << 17;
        assert!(check(&clean(), &run).unwrap().contains("fingerprint"));
    }

    #[test]
    fn failing_audit_fails() {
        let mut run = clean();
        run.violations
            .push("packets: offered != enqueued + dropped".into());
        assert!(check(&clean(), &run).unwrap().starts_with("audit"));
    }

    #[test]
    fn drifted_counts_fail() {
        let mut run = clean();
        run.events += 1;
        assert!(check(&clean(), &run).is_some());
        let mut run = clean();
        run.served -= 1;
        assert!(check(&clean(), &run).is_some());
    }

    #[test]
    fn ok_frac_counts_failures_against_attempts() {
        assert!((clean().ok_frac() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
