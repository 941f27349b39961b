//! Deterministic parallel execution for the rmt workspace.
//!
//! The experiment binaries and the differential suites sweep many
//! independent instances, attacks or fault seeds; each item is a pure
//! function of its input, so the sweep parallelizes embarrassingly. The
//! recorded artifacts must not depend on how many threads ran it, so the
//! primitive here is **deterministic**: the output is in input order and
//! bit-identical for any thread count, including `1`.
//!
//! * [`parallel_map`] — ordered map over items on a bounded pool of scoped
//!   OS threads (no idle spawns, worker panics propagate with context);
//! * [`configured_threads`] — the `--threads` / `RMT_THREADS` knob shared by
//!   the experiment binaries.
//!
//! Only sweeps run in parallel. Each cut decision and ⊕ fold runs on one
//! thread: a single decision is micro- to milliseconds of work, and splitting
//! one across 2 or 8 threads never beat one thread on E6c, E11b, E13 or E1
//! (EXPERIMENTS.md §E6c has the measurements).
//!
//! The layer is std-only (scoped threads, atomics, mutexes); no work-stealing
//! runtime is involved: workers claim items from a single atomic cursor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of worker threads actually used for `items` work items:
/// `min(threads, items)`, but at least 1 — spawning a thread that can never
/// claim an item is pure overhead.
pub fn effective_threads(threads: usize, items: usize) -> usize {
    threads.min(items).max(1)
}

/// Resolves the thread count for a parallel run, in priority order:
///
/// 1. `--threads N` (or `--threads=N`) on the command line;
/// 2. the `RMT_THREADS` environment variable;
/// 3. [`std::thread::available_parallelism`] (1 if unavailable).
///
/// Invalid or zero values fall through to the next source.
pub fn configured_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    threads_from(&args, std::env::var("RMT_THREADS").ok().as_deref())
}

/// [`configured_threads`] with explicit inputs, for tests and custom CLIs.
pub fn threads_from(args: &[String], env: Option<&str>) -> usize {
    let parse = |s: &str| s.parse::<usize>().ok().filter(|&n| n > 0);
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if let Some(v) = a.strip_prefix("--threads=") {
            if let Some(n) = parse(v) {
                return n;
            }
        } else if a == "--threads" {
            if let Some(n) = iter.next().and_then(|v| parse(v)) {
                return n;
            }
        }
    }
    if let Some(n) = env.and_then(parse) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `threads` OS threads, preserving input
/// order in the output.
///
/// Semantics:
///
/// * **Order** — `out[i] == f(items[i])` for every `i`, regardless of which
///   worker computed it or when.
/// * **No idle spawns** — only [`effective_threads`] workers are created;
///   `threads > items.len()` never parks surplus threads on an empty queue,
///   and `threads == 1` (or a single item) runs inline without spawning.
/// * **Panic propagation** — if `f` panics, the remaining workers stop at
///   their next claim (an [`AtomicBool`] cancellation flag) and the panic is
///   re-raised on the caller with the item index and original message
///   attached.
///
/// # Panics
///
/// Panics if `threads == 0`, and re-panics if `f` panicked on any item.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = items.len();
    let workers = effective_threads(threads, n);
    if workers <= 1 {
        // Inline, but with the same panic context the threaded path attaches.
        return items
            .into_iter()
            .enumerate()
            .map(
                |(idx, item)| match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => r,
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        panic!("parallel_map worker panicked on item {idx}: {msg}");
                    }
                },
            )
            .collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, String)>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = slots[idx]
                    .lock()
                    .expect("item slot lock")
                    .take()
                    .expect("each item is claimed exactly once");
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => *results[idx].lock().expect("result slot lock") = Some(r),
                    Err(payload) => {
                        cancelled.store(true, Ordering::Relaxed);
                        let mut first = failure.lock().expect("failure lock");
                        if first.is_none() {
                            *first = Some((idx, panic_message(payload.as_ref())));
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some((idx, msg)) = failure.into_inner().expect("failure lock") {
        panic!("parallel_map worker panicked on item {idx}: {msg}");
    }
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_caps_at_item_count() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
    }

    #[test]
    fn threads_from_prefers_cli_then_env() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(
            threads_from(&args(&["bin", "--threads", "3"]), Some("7")),
            3
        );
        assert_eq!(threads_from(&args(&["bin", "--threads=5"]), Some("7")), 5);
        assert_eq!(threads_from(&args(&["bin"]), Some("7")), 7);
        // Invalid values fall through.
        assert_eq!(
            threads_from(&args(&["bin", "--threads", "x"]), Some("4")),
            4
        );
        assert!(threads_from(&args(&["bin"]), Some("0")) >= 1);
    }

    #[test]
    fn parallel_map_is_ordered_and_total() {
        let out = parallel_map((0..257).collect(), 4, |x: i32| x * 2 + 1);
        assert_eq!(out, (0..257).map(|x| x * 2 + 1).collect::<Vec<_>>());
        assert_eq!(parallel_map(Vec::<i32>::new(), 8, |x| x), Vec::<i32>::new());
    }

    #[test]
    fn parallel_map_propagates_panics_with_context() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..16).collect(), 4, |x: i32| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        }))
        .unwrap_err();
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("worker panicked on item 7"), "{msg}");
        assert!(msg.contains("boom at 7"), "{msg}");
    }
}
