//! Recorders racing a snapshotting reader.
//!
//! The contract under concurrent recording: every snapshot is
//! internally consistent (each bucket read atomically; the count can
//! only grow), successive snapshots of one histogram are monotone in
//! every bucket, and once all recorders join, the final snapshot
//! accounts for every recorded observation exactly.

use obs_telemetry::{Counter, Histogram, InstrumentKind, InstrumentSpec, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const RECORDERS: usize = 4;
const PER_THREAD: u64 = 25_000;

const RACE_COMMITS_TOTAL: InstrumentSpec = InstrumentSpec {
    name: "race_commits_total",
    kind: InstrumentKind::Counter,
    labels: &["shard"],
    help: "Racing commits.",
};
const RACE_COMMIT_NS: InstrumentSpec = InstrumentSpec {
    name: "race_commit_ns",
    kind: InstrumentKind::Histogram,
    labels: &["shard"],
    help: "Racing commit latency.",
};

#[test]
fn snapshots_are_monotone_under_racing_recorders() {
    let h = Histogram::new();
    let stop = AtomicBool::new(false);
    // Set by the reader after its first snapshot: recorders wait for
    // it, so the reader polls at least once and races the recording.
    let started = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut last_count = 0u64;
            let mut last_sum = 0u64;
            let mut polls = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = h.snapshot();
                let count = snap.count();
                let sum = snap.sum();
                assert!(
                    count >= last_count,
                    "count went backwards: {last_count} -> {count}"
                );
                assert!(sum >= last_sum, "sum went backwards: {last_sum} -> {sum}");
                assert!(snap.max() <= 4 * 7 + 4095);
                // Quantiles over a mid-race snapshot must stay
                // within the grid the recorders feed.
                assert!(snap.p99() <= snap.max().max(1) + snap.max() / 16);
                last_count = count;
                last_sum = sum;
                polls += 1;
                started.store(true, Ordering::Release);
            }
            polls
        });

        for t in 0..RECORDERS {
            let h = h.clone();
            let started = &started;
            scope.spawn(move || {
                while !started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                for i in 0..PER_THREAD {
                    // Deterministic per-thread value stream spanning
                    // exact and log buckets.
                    h.record((t as u64 + 1) * 7 + i % 4096);
                }
            });
        }

        // Let the recorder threads finish, then release the reader.
        // (Scope join order: we can't join named handles before the
        // loop-spawned ones, so recorders signal completion by the
        // count reaching the known total.)
        let total = (RECORDERS as u64) * PER_THREAD;
        while h.snapshot().count() < total {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Relaxed);
        let polls = reader.join().expect("reader panicked");
        assert!(polls > 0, "reader never snapshotted");
    });

    // Exactness after quiescence: every observation accounted for.
    let snap = h.snapshot();
    assert_eq!(snap.count(), (RECORDERS as u64) * PER_THREAD);
    let expected_sum: u64 = (0..RECORDERS as u64)
        .map(|t| (0..PER_THREAD).map(|i| (t + 1) * 7 + i % 4096).sum::<u64>())
        .sum();
    assert_eq!(snap.sum(), expected_sum);
}

#[test]
fn registry_handles_race_with_snapshots() {
    let registry = Arc::new(Registry::new());
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for t in 0..RECORDERS {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                // Half the threads register fresh handles mid-race,
                // half reuse one — both paths must be safe.
                let shard = (t % 2).to_string();
                let counter: Counter =
                    registry.counter_with(&RACE_COMMITS_TOTAL, &[("shard", &shard)]);
                let hist = registry.histogram_with(&RACE_COMMIT_NS, &[("shard", &shard)]);
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(i % 1024);
                    if i % 8192 == 0 {
                        // Re-registration returns the same series.
                        let again =
                            registry.counter_with(&RACE_COMMITS_TOTAL, &[("shard", &shard)]);
                        assert!(again.get() <= (RECORDERS as u64) * PER_THREAD);
                    }
                }
            });
        }

        let reader = scope.spawn(|| {
            let mut last_total = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let mut total = 0u64;
                for snap in registry.snapshot() {
                    if let obs_telemetry::MetricValue::Counter(v) = snap.value {
                        total += v;
                    }
                }
                assert!(total >= last_total, "counter total went backwards");
                last_total = total;
            }
        });

        let total_counter = || {
            registry
                .snapshot()
                .iter()
                .filter_map(|s| match s.value {
                    obs_telemetry::MetricValue::Counter(v) => Some(v),
                    _ => None,
                })
                .sum::<u64>()
        };
        while total_counter() < (RECORDERS as u64) * PER_THREAD {
            std::hint::spin_loop();
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked");
    });

    assert_eq!(
        registry
            .snapshot()
            .iter()
            .filter_map(|s| match &s.value {
                obs_telemetry::MetricValue::Histogram(h) => Some(h.count()),
                _ => None,
            })
            .sum::<u64>(),
        (RECORDERS as u64) * PER_THREAD
    );
}
