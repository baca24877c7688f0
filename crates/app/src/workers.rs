//! A work-claiming thread pool, shared by the cluster plane (host builds
//! and syncs) and the bench crate's sweeps.
//!
//! Each thread claims the next item from one shared iterator, so uneven
//! items balance themselves, and the calling thread takes part. A pool
//! started on a thread that is already one of a pool's workers runs its
//! items inline: the outer pool already holds the threads it was given,
//! and nesting would multiply them (a sweep of clusters on `w` workers
//! would otherwise start `w × hosts` threads). The results never depend
//! on the thread count.

use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// Set while this thread works for a pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped.
struct Enlisted(bool);

impl Enlisted {
    fn new() -> Self {
        Self(IN_POOL.replace(true))
    }
}

impl Drop for Enlisted {
    fn drop(&mut self) {
        IN_POOL.set(self.0);
    }
}

/// Threads the machine offers (`available_parallelism`, 1 if unknown).
#[must_use]
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item on up to `workers` threads, the calling
/// thread included; each thread takes the next item until none are left.
/// Runs inline when `workers <= 1` or when called from a pool worker.
pub fn for_each<I>(workers: usize, items: I, f: impl Fn(I::Item) + Sync)
where
    I: Iterator + Send,
    I::Item: Send,
{
    if workers <= 1 || IN_POOL.get() {
        items.for_each(f);
        return;
    }
    let next = Mutex::new(items);
    let work = || {
        let _enlisted = Enlisted::new();
        loop {
            let item = next.lock().expect("a pool worker panicked").next();
            let Some(item) = item else { return };
            f(item);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            // A thread that cannot be spawned leaves its share to the
            // others; this one always takes part.
            let _ = std::thread::Builder::new().spawn_scoped(scope, work);
        }
        work();
    });
}

/// Maps `f` over `items` on up to `workers` threads (see [`for_each`]),
/// keeping input order in the output.
pub fn map<C, T>(items: Vec<C>, workers: usize, f: impl Fn(C) -> T + Sync) -> Vec<T>
where
    C: Send,
    T: Send,
{
    let mut out: Vec<Option<T>> = items.iter().map(|_| None).collect();
    let workers = workers.min(items.len());
    for_each(workers, items.into_iter().zip(&mut out), |(c, slot)| {
        *slot = Some(f(c));
    });
    out.into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_keeps_input_order_at_any_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for w in [0, 1, 2, 3, 200] {
            assert_eq!(map(items.clone(), w, |x| x * x), want, "{w} workers");
        }
        assert!(map(Vec::<u64>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn for_each_visits_every_item_once() {
        let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        for_each(4, hits.iter(), |h| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// A pool inside a pool runs inline, on the outer worker's thread.
    #[test]
    fn nested_pools_run_inline() {
        let outer = map((0..4).collect::<Vec<u32>>(), 2, |_| {
            let me = std::thread::current().id();
            let inner = map((0..8).collect::<Vec<u32>>(), 4, |_| {
                std::thread::current().id()
            });
            inner.iter().all(|&id| id == me)
        });
        assert!(outer.iter().all(|&inline| inline));
        assert!(!IN_POOL.get(), "the calling thread is released afterwards");
    }
}
