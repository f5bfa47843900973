//! An order-preserving parallel map over `std::thread::scope`, for work
//! that is not a journaled [`JobSpec`](crate::JobSpec) — the
//! multi-program mixes of Figure 13 and `bvsim kv --sweep`. Sweeps of
//! `JobSpec`s run on the job [`Engine`](crate::Engine) instead.
//!
//! The items are known up front and coarse, so the workers share one
//! atomic cursor: each takes the next unclaimed index until none is
//! left.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on `workers` threads, returning results in
/// input order. `f` receives `(worker_index, item_index, item)`.
///
/// With `workers <= 1` the items run serially on the calling thread in
/// input order — byte-identical behavior to a plain loop, which the
/// determinism tests rely on.
///
/// # Panics
///
/// Propagates a panic raised by `f` once the other workers have run
/// the remaining items.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(0, i, item))
            .collect();
    }
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|item| Mutex::new((Some(item), None)))
        .collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers.min(n) {
            let (slots, cursor, f) = (&slots, &cursor, &f);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let item = slot.lock().expect("slot").0.take().expect("unclaimed item");
                let r = f(w, i, item);
                slot.lock().expect("slot").1 = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot").1.expect("every item ran"))
        .collect()
}

/// The worker count to use when the caller expresses no preference: the
/// `BV_JOBS` environment variable if set and positive, else the machine's
/// available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    if let Some(n) = std::env::var("BV_JOBS").ok().and_then(|v| v.parse().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..100).collect(), 4, |_, _, x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_is_serial() {
        let order = Mutex::new(Vec::new());
        parallel_map((0..10).collect(), 1, |w, i, x: usize| {
            assert_eq!(w, 0);
            assert_eq!(i, x);
            order.lock().unwrap().push(x);
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 8, |_, _, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = parallel_map(vec![1, 2], 16, |_, _, x: i32| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn all_items_run_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = parallel_map((0..257).collect(), 7, |_, _, x: usize| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn uneven_job_costs_complete() {
        // Every fourth item is slow; the shared cursor must still drain all.
        let out = parallel_map((0..32).collect(), 4, |_, _, x: u64| {
            if x.is_multiple_of(4) {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }
}
