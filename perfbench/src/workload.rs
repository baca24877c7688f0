//! The benchmark's workloads: fixed simulator configurations, varied
//! only by the seed.

use app::{ClusterConfig, ListenKind, RunConfig, ServerKind, Workload};
use sim::time::ms;
use sim::topology::Machine;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Fine-Accept, intel80 at 48 cores, lighttpd: wallclock's full fig6 point.
    Fig6Fine48,
    /// The same point under Affinity-Accept.
    Fig6Affinity48,
    /// Four 16-core amd48 hosts behind the consistent-hash LB, keep-alive sessions.
    Cluster4Keepalive,
}

/// The simulator configuration a workload runs.
#[derive(Debug, Clone)]
pub enum Setup {
    /// One host, driven by `app::Runner`.
    Host(RunConfig),
    /// A cluster, driven by `app::ClusterRunner`.
    Cluster(ClusterConfig),
}

impl Setup {
    /// The host configuration: the run itself, or the cluster's
    /// per-host template.
    pub fn host_mut(&mut self) -> &mut RunConfig {
        match self {
            Setup::Host(cfg) => cfg,
            Setup::Cluster(c) => &mut c.base,
        }
    }
}

impl Bench {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Bench; 3] = [
        Bench::Fig6Fine48,
        Bench::Fig6Affinity48,
        Bench::Cluster4Keepalive,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Fig6Fine48 => "fig6_fine48",
            Bench::Fig6Affinity48 => "fig6_affinity48",
            Bench::Cluster4Keepalive => "cluster4_keepalive",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(s: &str) -> Option<Bench> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The listen-socket implementation every host of the workload runs.
    pub fn listen(self) -> ListenKind {
        match self {
            Bench::Fig6Fine48 => ListenKind::Fine,
            Bench::Fig6Affinity48 | Bench::Cluster4Keepalive => ListenKind::Affinity,
        }
    }

    /// The workload's configuration at `seed`; `short` shrinks the
    /// warm-up and measured windows to 20 ms each (for tests only).
    pub fn setup(self, seed: u64, short: bool) -> Setup {
        let mut setup = match self {
            Bench::Fig6Fine48 | Bench::Fig6Affinity48 => {
                Setup::Host(fig6_point(self.listen(), seed))
            }
            Bench::Cluster4Keepalive => Setup::Cluster(cluster4(seed)),
        };
        if short {
            let cfg = setup.host_mut();
            cfg.warmup = ms(20);
            cfg.measure = ms(20);
        }
        setup
    }

    /// The configuration of one host of the workload: the run itself
    /// for the fig6 points; for the cluster, its per-host template
    /// driven by its own open-loop arrivals at the per-host rate.
    pub fn host_config(self, seed: u64, short: bool) -> RunConfig {
        self.setup(seed, short).host_mut().clone()
    }
}

/// Figure 6's 48-core lighttpd point on the intel80 machine, at the
/// calibrated near-saturation rate (`wallclock`'s full fig6 run).
fn fig6_point(listen: ListenKind, seed: u64) -> RunConfig {
    let cores = 48;
    let server = ServerKind::lighttpd();
    let mut cfg = RunConfig::new(
        Machine::intel80(),
        cores,
        listen,
        server,
        Workload::base(),
        bench::rate_guess(listen, server, cores),
    );
    cfg.warmup = ms(450);
    cfg.measure = ms(300);
    cfg.seed = seed;
    cfg
}

/// Four 16-core amd48 hosts under Affinity-Accept behind the
/// consistent-hash LB on the LAN fabric, no host faults. Keep-alive
/// sessions: 16 requests per connection in four batches, 20 ms think,
/// 300 connections/s per core.
fn cluster4(seed: u64) -> ClusterConfig {
    let cores = 16;
    let workload = Workload {
        batches: vec![4, 4, 4, 4],
        think: ms(20),
        ..Workload::base()
    };
    let mut base = RunConfig::new(
        Machine::amd48(),
        cores,
        ListenKind::Affinity,
        ServerKind::apache(),
        workload,
        300.0 * cores as f64,
    );
    base.warmup = ms(200);
    base.measure = ms(400);
    base.seed = seed;
    ClusterConfig::new(4, base)
}

/// Each workload's output at seed 1: `(fingerprint, events, served)`.
/// A change to any of these redefines the workload (or changes the
/// simulator's behaviour) and must be deliberate.
pub const PINS: [(Bench, u64, u64, u64); 3] = [
    (Bench::Fig6Fine48, 0x4d52_6c6c_0fd0_398f, 6_150_970, 194_391),
    (
        Bench::Fig6Affinity48,
        0xd491_5c61_8f74_6053,
        3_281_047,
        225_320,
    ),
    (
        Bench::Cluster4Keepalive,
        0x9b0f_05c2_0411_675b,
        1_059_018,
        119_599,
    ),
];

/// Returns `setup` with the dprof-v2 cache-line ledger recording on
/// every host (an observer: the output must not change).
pub fn with_dprof_v2(setup: &Setup) -> Setup {
    let mut s = setup.clone();
    s.host_mut().dprof_v2 = true;
    s
}

/// Returns `setup` stopped one cycle after its warm-up: the same event
/// stream up to the end of warm-up, so its run time is the warm-up's
/// share of a full run.
pub fn warmup_only(setup: &Setup) -> Setup {
    let mut s = setup.clone();
    s.host_mut().measure = 1;
    s
}
