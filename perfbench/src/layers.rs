//! Layer drivers: each calls one layer's public functions in a loop
//! shaped by the workload and reports host nanoseconds per call.
//!
//! Calls are timed in batches (one clock read per phase of a batch, not
//! per call), and every batch is a span in the trace. Before the timed
//! batches, the listen and tcp drivers walk a few connections one call
//! at a time with a span per call; the spans of one such connection
//! share its flow id.

use crate::run::median;
use crate::trace::Trace;
use affinity_accept::{
    AcceptOutcome, AckOutcome, AffinityAccept, FineAccept, ListenConfig, ListenSocket, StockAccept,
};
use app::{ListenKind, RunConfig};
use mem::layout::FieldTag;
use mem::{CacheModel, DataType};
use nic::{FlowGroupTable, FlowTuple};
use sim::rng::SimRng;
use sim::time::Cycles;
use sim::topology::{CoreId, Machine};
use sim::EventQueue;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tcp::{ConnId, Kernel};

/// Timed repetitions of each driver; the reported figure is their median.
const REPS: usize = 5;
/// Connections walked one call at a time, with a span per call.
const FLOW_SPANS: u64 = 4;
/// Simulated cycles between consecutive driven calls.
const STEP: Cycles = 2_000;

/// What the drivers take from the workload and its measured run.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The host machine model.
    pub machine: Machine,
    /// Active cores per host.
    pub cores: usize,
    /// Listen-socket implementation.
    pub listen: ListenKind,
    /// Requests per connection.
    pub requests_per_conn: u32,
    /// Measured share of accepts served from the accepting core's queue.
    pub local_frac: f64,
    /// Event-queue depth of a host at the end of its run.
    pub pending: u64,
    /// Mean simulated lead time of a queued event (Little's law:
    /// pending depth over events per simulated cycle).
    pub lead: Cycles,
    /// Response bytes per request written by the server.
    pub response_bytes: u32,
    /// Seed for the drivers' random choices.
    pub seed: u64,
}

impl Shape {
    /// The shape of `cfg`'s host, given its measured run counters.
    pub fn new(cfg: &RunConfig, local_frac: f64, pending: u64, events: u64) -> Self {
        let span = (cfg.warmup + cfg.measure).max(1);
        let per_cycle = events.max(1) as f64 / span as f64;
        Self {
            machine: cfg.machine.clone(),
            cores: cfg.cores,
            listen: cfg.listen,
            requests_per_conn: cfg.workload.requests_per_conn(),
            local_frac,
            pending: pending.max(1),
            lead: ((pending.max(1) as f64 / per_cycle) as Cycles).max(1),
            response_bytes: app::workload::Workload::response_bytes(
                cfg.workload.file_set().mean() as u32
            ),
            seed: cfg.seed,
        }
    }

    fn core(&self, i: u64) -> CoreId {
        CoreId((i % self.cores as u64) as u16)
    }

    fn listen_socket(&self, k: &mut Kernel) -> Box<dyn ListenSocket> {
        let cfg = ListenConfig::paper(self.cores);
        match self.listen {
            ListenKind::Stock | ListenKind::Twenty => Box::new(StockAccept::new(k, cfg)),
            ListenKind::Fine => Box::new(FineAccept::new(k, cfg)),
            ListenKind::Affinity | ListenKind::BusyPoll => Box::new(AffinityAccept::new(k, cfg)),
        }
    }

    fn fine_locks(&self) -> bool {
        !matches!(self.listen, ListenKind::Stock | ListenKind::Twenty)
    }
}

/// A distinct client tuple per connection index.
fn tuple(i: u64) -> FlowTuple {
    FlowTuple::client(
        0x0b00_0000 + (i >> 15) as u32,
        1024 + (i & 0x7fff) as u16,
        80,
    )
}

/// Accumulates per-call nanoseconds by name across repetitions.
#[derive(Default)]
struct Clock {
    ns: BTreeMap<&'static str, Vec<f64>>,
    pending: BTreeMap<&'static str, (f64, u64)>,
}

impl Clock {
    /// Times one batch phase of `calls` calls inside a span.
    fn phase<T>(
        &mut self,
        trace: &mut Trace,
        name: &'static str,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        trace.begin(name, None);
        let t0 = Instant::now();
        let v = f();
        let ns = t0.elapsed().as_nanos() as f64;
        trace.end();
        let e = self.pending.entry(name).or_insert((0.0, 0));
        e.0 += ns;
        e.1 += calls;
        v
    }

    /// Closes one repetition: its per-call figures join the samples.
    fn rep_done(&mut self) {
        for (name, (ns, calls)) in std::mem::take(&mut self.pending) {
            self.ns
                .entry(name)
                .or_default()
                .push(ns / calls.max(1) as f64);
        }
    }

    fn medians(&self) -> BTreeMap<String, f64> {
        self.ns
            .iter()
            .map(|(k, v)| ((*k).to_string(), median(v)))
            .collect()
    }
}

/// Every driver's per-call nanoseconds, keyed by metric name.
pub fn drive_all(shape: &Shape, trace: &mut Trace) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    out.extend(trace.span("sim.queue_driver", |t| queue(shape, t)).0);
    out.extend(trace.span("mem.cache_driver", |t| cache(shape, t)).0);
    out.extend(trace.span("listen.driver", |t| listen(shape, t)).0);
    out.extend(trace.span("tcp.driver", |t| tcp_ops(shape, t)).0);
    out.extend(trace.span("nic.route_driver", |t| route(shape, t)).0);
    out
}

/// `sim::EventQueue` hold pattern: pop the earliest event, push one at a
/// uniform offset in `[1, 2 * lead]`, at the host's pending depth.
fn queue(shape: &Shape, trace: &mut Trace) -> BTreeMap<String, f64> {
    const OPS: u64 = 1 << 20;
    let mut clock = Clock::default();
    let mut rng = SimRng::new(shape.seed ^ 0x51_u64);
    let horizon = 2 * shape.lead;
    for _ in 0..REPS {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..shape.pending {
            q.push(rng.range(1, horizon + 1), i as u32);
        }
        clock.phase(trace, "sim.queue.hold", OPS, || {
            let mut acc = 0u64;
            for _ in 0..OPS {
                let (now, v) = q.pop().expect("hold pattern keeps the queue full");
                acc = acc.wrapping_add(u64::from(v));
                q.push(now + rng.range(1, horizon + 1), v);
            }
            black_box(acc)
        });
        clock.rep_done();
    }
    BTreeMap::from([(
        "sim.queue.ns_per_op".to_string(),
        clock.medians()["sim.queue.hold"],
    )])
}

/// `CacheModel::access_tagged` on socket objects homed round-robin on
/// the active cores: each access comes from the object's home core with
/// the workload's measured local-accept share, else from another core.
fn cache(shape: &Shape, trace: &mut Trace) -> BTreeMap<String, f64> {
    const OBJS: u64 = 4096;
    const OPS: u64 = 1 << 19;
    let mut clock = Clock::default();
    let mut rng = SimRng::new(shape.seed ^ 0xCA_u64);
    let mut m = CacheModel::new(shape.machine.clone());
    let objs: Vec<_> = (0..OBJS)
        .map(|i| m.alloc(DataType::TcpSock, shape.core(i)))
        .collect();
    let cores = shape.cores as u64;
    let plan: Vec<(usize, CoreId)> = (0..OPS)
        .map(|_| {
            let i = rng.below(OBJS);
            let core = if cores == 1 || rng.chance(shape.local_frac) {
                shape.core(i)
            } else {
                shape.core(i + rng.range(1, cores))
            };
            (i as usize, core)
        })
        .collect();
    for _ in 0..REPS {
        clock.phase(trace, "mem.cache.access", OPS, || {
            let mut acc = 0u64;
            for &(i, core) in &plan {
                acc += m
                    .access_tagged(core, objs[i], FieldTag::BothRwByRx, true)
                    .latency;
            }
            black_box(acc)
        });
        clock.rep_done();
    }
    BTreeMap::from([(
        "mem.cache.ns_per_access".to_string(),
        clock.medians()["mem.cache.access"],
    )])
}

/// SYN → ACK → `accept()` through the workload's listen socket, in
/// batches of eight connections per core (within the per-core backlog).
fn listen(shape: &Shape, trace: &mut Trace) -> BTreeMap<String, f64> {
    const BATCHES: u64 = 64;
    let batch = 8 * shape.cores as u64;
    let mut k = Kernel::new(shape.machine.clone());
    let mut s = shape.listen_socket(&mut k);
    let mut at: Cycles = 0;
    let mut next: u64 = 0;
    // A few connections one call at a time, a span per call.
    for flow in 0..FLOW_SPANS {
        let core = shape.core(flow);
        let tu = tuple(next);
        next += 1;
        trace.begin("listen.on_syn", Some(flow));
        s.on_syn(&mut k, core, at, tu);
        trace.end();
        at += STEP;
        trace.begin("listen.on_ack", Some(flow));
        s.on_ack(&mut k, core, at, tu);
        trace.end();
        at += STEP;
        trace.begin("listen.try_accept", Some(flow));
        let out = s.try_accept(&mut k, core, at);
        trace.end();
        at += STEP;
        close_accepted(&mut k, core, at, out);
    }
    let mut clock = Clock::default();
    for _ in 0..REPS {
        for _ in 0..BATCHES {
            let first = next;
            next += batch;
            clock.phase(trace, "listen.on_syn", batch, || {
                for i in first..first + batch {
                    at += STEP;
                    black_box(s.on_syn(&mut k, shape.core(i), at, tuple(i)));
                }
            });
            let enqueued = clock.phase(trace, "listen.on_ack", batch, || {
                let mut n = 0u64;
                for i in first..first + batch {
                    at += STEP;
                    let (_, out) = s.on_ack(&mut k, shape.core(i), at, tuple(i));
                    n += u64::from(matches!(out, AckOutcome::Enqueued { .. }));
                }
                n
            });
            let accepted = clock.phase(trace, "listen.try_accept", batch, || {
                let mut got = Vec::with_capacity(batch as usize);
                for i in first..first + batch {
                    at += STEP;
                    let core = shape.core(i);
                    got.push((core, s.try_accept(&mut k, core, at)));
                }
                got
            });
            let mut left = enqueued;
            for (core, out) in accepted {
                left -= u64::from(close_accepted(&mut k, core, at, out));
            }
            // Whatever the batch's accepts left queued is drained here,
            // untimed, trying every core's view of the socket.
            'drain: while left > 0 {
                for c in 0..shape.cores as u64 {
                    let core = shape.core(c);
                    let out = s.try_accept(&mut k, core, at);
                    if close_accepted(&mut k, core, at, out) {
                        left -= 1;
                        continue 'drain;
                    }
                }
                panic!("listen driver: {left} queued connections not acceptable");
            }
        }
        clock.rep_done();
    }
    clock
        .medians()
        .into_iter()
        .map(|(name, ns)| (format!("{name}.ns"), ns))
        .collect()
}

/// Finishes an accepted connection (untimed); returns whether one was.
fn close_accepted(k: &mut Kernel, core: CoreId, at: Cycles, out: AcceptOutcome) -> bool {
    match out {
        AcceptOutcome::Accepted { item, .. } => {
            tcp::ops::accept_established(k, core, at, item.conn, item.req_obj);
            tcp::ops::sys_close(k, core, at, item.conn);
            k.remove_conn(item.conn);
            true
        }
        AcceptOutcome::Empty { .. } => false,
    }
}

/// The `tcp::ops` path of one connection in the workload's mix:
/// handshake, accept, then per request a data segment, a `read()` and a
/// `writev()` of the response, then `close()`. Connection `i` runs on
/// core `i mod cores`.
fn tcp_ops(shape: &Shape, trace: &mut Trace) -> BTreeMap<String, f64> {
    const BATCHES: u64 = 16;
    const BATCH: u64 = 256;
    let fine = shape.fine_locks();
    let mut k = Kernel::new(shape.machine.clone());
    let mut at: Cycles = 0;
    let mut next: u64 = 0;
    let request = app::workload::REQUEST_BYTES;
    for flow in 0..FLOW_SPANS {
        let core = shape.core(flow);
        let tu = tuple(next);
        next += 1;
        let mut step = |trace: &mut Trace, name: &str| {
            at += STEP;
            trace.begin(name, Some(flow));
            at
        };
        let t = step(trace, "tcp.syn");
        let (_, req) = tcp::ops::syn(&mut k, core, t, tu, fine);
        trace.end();
        let t = step(trace, "tcp.ack_establish");
        let (_, conn, obj) =
            tcp::ops::ack_establish(&mut k, core, t, req, fine).expect("fresh request socket");
        trace.end();
        let t = step(trace, "tcp.accept_established");
        tcp::ops::accept_established(&mut k, core, t, conn, obj);
        trace.end();
        for r in 0..shape.requests_per_conn {
            let t = step(trace, "tcp.data_rx");
            tcp::ops::data_rx(&mut k, core, t, conn, request, r, None);
            trace.end();
            let t = step(trace, "tcp.sys_read");
            black_box(tcp::ops::sys_read(&mut k, core, t, conn));
            trace.end();
            let t = step(trace, "tcp.sys_writev");
            tcp::ops::sys_writev(&mut k, core, t, conn, shape.response_bytes);
            trace.end();
        }
        let t = step(trace, "tcp.sys_close");
        tcp::ops::sys_close(&mut k, core, t, conn);
        trace.end();
        k.remove_conn(conn);
    }
    let mut clock = Clock::default();
    for _ in 0..REPS {
        for _ in 0..BATCHES {
            let first = next;
            next += BATCH;
            let ids = first..first + BATCH;
            let reqs: Vec<_> = clock.phase(trace, "tcp.syn", BATCH, || {
                ids.clone()
                    .map(|i| {
                        at += STEP;
                        tcp::ops::syn(&mut k, shape.core(i), at, tuple(i), fine).1
                    })
                    .collect()
            });
            let conns: Vec<(u64, ConnId, mem::ObjId)> =
                clock.phase(trace, "tcp.ack_establish", BATCH, || {
                    ids.clone()
                        .zip(reqs)
                        .map(|(i, req)| {
                            at += STEP;
                            let (_, conn, obj) =
                                tcp::ops::ack_establish(&mut k, shape.core(i), at, req, fine)
                                    .expect("fresh request socket");
                            (i, conn, obj)
                        })
                        .collect()
                });
            clock.phase(trace, "tcp.accept_established", BATCH, || {
                for &(i, conn, obj) in &conns {
                    at += STEP;
                    tcp::ops::accept_established(&mut k, shape.core(i), at, conn, obj);
                }
            });
            for r in 0..shape.requests_per_conn {
                clock.phase(trace, "tcp.data_rx", BATCH, || {
                    for &(i, conn, _) in &conns {
                        at += STEP;
                        tcp::ops::data_rx(&mut k, shape.core(i), at, conn, request, r, None);
                    }
                });
                clock.phase(trace, "tcp.sys_read", BATCH, || {
                    for &(i, conn, _) in &conns {
                        at += STEP;
                        black_box(tcp::ops::sys_read(&mut k, shape.core(i), at, conn));
                    }
                });
                clock.phase(trace, "tcp.sys_writev", BATCH, || {
                    for &(i, conn, _) in &conns {
                        at += STEP;
                        tcp::ops::sys_writev(&mut k, shape.core(i), at, conn, shape.response_bytes);
                    }
                });
            }
            clock.phase(trace, "tcp.sys_close", BATCH, || {
                for &(i, conn, _) in &conns {
                    at += STEP;
                    tcp::ops::sys_close(&mut k, shape.core(i), at, conn);
                }
            });
            for &(_, conn, _) in &conns {
                k.remove_conn(conn);
            }
        }
        clock.rep_done();
    }
    clock
        .medians()
        .into_iter()
        .map(|(name, ns)| (format!("{name}.ns"), ns))
        .collect()
}

/// `FlowGroupTable::route` over distinct client tuples, on the
/// workload's ring count with the default flow-group count.
fn route(shape: &Shape, trace: &mut Trace) -> BTreeMap<String, f64> {
    const OPS: u64 = 1 << 20;
    let rings = shape.cores.min(shape.machine.total_rings());
    let table = FlowGroupTable::new(rings, nic::steering::DEFAULT_FLOW_GROUPS);
    let tuples: Vec<FlowTuple> = (0..4096).map(tuple).collect();
    let mut clock = Clock::default();
    for _ in 0..REPS {
        clock.phase(trace, "nic.route", OPS, || {
            let mut acc = 0u64;
            for i in 0..OPS {
                acc += u64::from(table.route(black_box(&tuples[(i & 4095) as usize])).0);
            }
            black_box(acc)
        });
        clock.rep_done();
    }
    BTreeMap::from([("nic.route.ns".to_string(), clock.medians()["nic.route"])])
}
