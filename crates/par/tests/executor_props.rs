//! Property tests for the parallel executor: order preservation, panic
//! propagation and idle-thread avoidance.

use std::collections::HashSet;
use std::sync::Mutex;

use proptest::prelude::*;
use rmt_par::{effective_threads, parallel_map, threads_from};

fn cases() -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    ProptestConfig::with_cases(n)
}

proptest! {
    #![proptest_config(cases())]

    /// `out[i] == f(items[i])` for every thread count, including
    /// `threads > len` and the empty input.
    #[test]
    fn map_preserves_order(items in proptest::collection::vec(-1_000_000i64..1_000_000, 0..80), threads in 1usize..12) {
        let expected: Vec<i64> = items.iter().map(|x| x.wrapping_mul(3) ^ 7).collect();
        let out = parallel_map(items, threads, |x: i64| x.wrapping_mul(3) ^ 7);
        prop_assert_eq!(out, expected);
    }

    /// No more than `min(threads, len)` distinct workers ever touch the
    /// items: surplus threads are not spawned at all.
    #[test]
    fn no_idle_workers(len in 0usize..40, threads in 1usize..16) {
        let ids = Mutex::new(HashSet::new());
        parallel_map((0..len).collect(), threads, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
        });
        let distinct = ids.into_inner().unwrap().len();
        prop_assert!(
            distinct <= effective_threads(threads, len),
            "{distinct} workers for {len} items on {threads} threads"
        );
    }
}

#[test]
fn worker_panics_propagate_with_the_item_index() {
    for threads in [1, 2, 8] {
        let err = std::panic::catch_unwind(|| {
            parallel_map((0..50).collect(), threads, |x: i32| {
                assert!(x != 17, "boom on {x}");
                x
            })
        })
        .expect_err("the panic must reach the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload carries context");
        assert!(
            msg.contains("item 17") && msg.contains("boom on 17"),
            "unexpected panic message: {msg}"
        );
    }
}

#[test]
fn empty_input_returns_empty_without_spawning() {
    let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 8, |x| x);
    assert!(out.is_empty());
}

#[test]
fn thread_knob_resolution_order() {
    let args = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(
        threads_from(&args(&["bin", "--threads", "6"]), Some("3")),
        6
    );
    assert_eq!(threads_from(&args(&["bin", "--threads=2"]), Some("3")), 2);
    assert_eq!(threads_from(&args(&["bin"]), Some("3")), 3);
    // Invalid values fall through.
    assert_eq!(
        threads_from(&args(&["bin", "--threads", "zero"]), Some("5")),
        5
    );
    assert!(threads_from(&args(&["bin"]), Some("0")) >= 1);
}
