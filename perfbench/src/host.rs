//! Host identity, the calibration kernel and peak resident memory.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Random read-modify-writes one calibration sample makes (about 1.6 ms).
const CALIB_ACCESSES: u32 = 200_000;
/// Words of the calibration kernel's array (32 KiB, the size of a level-1
/// data cache).
const CALIB_WORDS: usize = 1 << 12;
/// Most samples one [`Calib::during`] keeps.
const MAX_SAMPLES: usize = 4096;

/// The calibration kernel's nanoseconds per access on the reference host
/// (about its median during runs on the host README.md's first numbers
/// were recorded on).
pub const REF_CALIB_NS: f64 = 7.5;

/// How steeply the simulator's host time follows the kernel's: when
/// other tenants slow the core, a run slows by about the kernel's
/// slowdown to this power. A control-variate coefficient, fitted on
/// invocations minutes apart on a shared host (README.md, Calibration).
pub const CALIB_EXPONENT: f64 = 2.5;

/// The factor that scales a host time measured next to calibration
/// figure `calib_ns` to the reference host:
/// `(REF_CALIB_NS / calib_ns)^CALIB_EXPONENT`.
pub fn scale(calib_ns: f64) -> f64 {
    (REF_CALIB_NS / calib_ns).powf(CALIB_EXPONENT)
}

/// The calibration kernel: random read-modify-writes with a
/// data-dependent branch over a 32 KiB array, allocated once. Each sample
/// first reads the whole array, so it times a cache-resident loop: it
/// measures how fast the core runs right now, which other tenants'
/// load on the same core moves, and not what the run left in the caches.
/// A sample is short enough to take many times during one run. It is
/// the benchmark's own code: no change to the simulator changes it.
pub struct Calib {
    state: Vec<u64>,
    x: u64,
}

impl Default for Calib {
    fn default() -> Self {
        Self::new()
    }
}

impl Calib {
    /// Allocates and touches the kernel's array.
    pub fn new() -> Self {
        Self {
            state: vec![1; CALIB_WORDS],
            x: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Host nanoseconds per access of one sample.
    pub fn sample_ns(&mut self) -> f64 {
        let n = self.state.len();
        let mut acc = self.state.iter().fold(0u64, |a, &s| a.wrapping_add(s));
        let t0 = Instant::now();
        for _ in 0..CALIB_ACCESSES {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let r = self.x;
            let i = r as usize % n;
            let s = self.state[i];
            if s & 1 == 0 {
                acc = acc.wrapping_add(s);
            } else {
                acc ^= s.rotate_left(7);
            }
            self.state[(i + (s as usize & 255)) % n] = s.wrapping_mul(31).wrapping_add(r);
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64 / f64::from(CALIB_ACCESSES)
    }

    /// Mean of `n` samples.
    pub fn mean_ns(&mut self, n: usize) -> f64 {
        (0..n).map(|_| self.sample_ns()).sum::<f64>() / n as f64
    }

    /// Runs `f` and takes one sample about every `every` of host time
    /// while it runs. The samples are taken from inside the benchmark's
    /// global allocator, which the simulator calls throughout a run (see
    /// [`poll`]), so they interleave with the run on its own thread and
    /// core without a hook in the simulator. Returns `f`'s result, the
    /// samples (ns per access) and the host seconds they took, which the
    /// caller leaves out of its own timing of `f`.
    pub fn during<T>(&mut self, every: Duration, f: impl FnOnce() -> T) -> (T, Vec<f64>, f64) {
        let calib = std::mem::replace(
            self,
            Calib {
                state: Vec::new(),
                x: self.x,
            },
        );
        let sampler = Sampler {
            calib,
            every,
            next: Instant::now() + every,
            samples: Vec::with_capacity(MAX_SAMPLES),
            spent: Duration::ZERO,
        };
        *SAMPLER.lock().expect("the sampler lock is never poisoned") = Some(sampler);
        ARMED.store(true, Ordering::Relaxed);
        let out = f();
        ARMED.store(false, Ordering::Relaxed);
        let sampler = SAMPLER
            .lock()
            .expect("the sampler lock is never poisoned")
            .take()
            .expect("armed above");
        *self = sampler.calib;
        (out, sampler.samples, sampler.spent.as_secs_f64())
    }
}

/// The calibration state of a [`Calib::during`] in progress.
struct Sampler {
    calib: Calib,
    every: Duration,
    next: Instant,
    samples: Vec<f64>,
    spent: Duration,
}

static SAMPLER: Mutex<Option<Sampler>> = Mutex::new(None);
static ARMED: AtomicBool = AtomicBool::new(false);

/// Takes a calibration sample if a [`Calib::during`] is in progress and
/// its next sample is due. Called from the global allocator, so it must
/// not allocate: the sample list is reserved in advance, and a full list
/// stops sampling.
pub(crate) fn poll() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let Ok(mut guard) = SAMPLER.try_lock() else {
        return;
    };
    let Some(s) = guard.as_mut() else {
        return;
    };
    let now = Instant::now();
    if now < s.next || s.samples.len() == s.samples.capacity() {
        return;
    }
    let ns = s.calib.sample_ns();
    s.samples.push(ns);
    let end = Instant::now();
    s.spent += end - now;
    s.next = end + s.every;
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What every result is recorded with: `(key, value)` pairs.
pub fn identity() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", git_commit()),
        ("build", build_features()),
    ]
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory (never from a parent directory).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn build_features() -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("{profile}, instrumentation compiled in, optional planes off")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_the_reference_and_grows_on_a_fast_core() {
        assert_eq!(scale(REF_CALIB_NS), 1.0);
        assert!(scale(REF_CALIB_NS / 2.0) > 1.0);
    }

    #[test]
    fn during_samples_from_inside_allocations_and_only_then() {
        let mut calib = Calib::new();
        let allocating = || {
            let t = Instant::now();
            let mut bytes = 0;
            while t.elapsed() < Duration::from_millis(40) {
                bytes += black_box(vec![0u8; 64]).len();
            }
            bytes
        };
        let (bytes, samples, spent) = calib.during(Duration::from_millis(2), allocating);
        assert!(bytes > 0);
        assert!(!samples.is_empty());
        assert!(samples.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(spent > 0.0 && spent < 1.0);
        // Disarmed: the same loop outside `during` leaves no sampler.
        allocating();
        assert!(SAMPLER.lock().unwrap().is_none());
        assert!(calib.sample_ns() > 0.0);
    }
}
