//! # obs-telemetry — lock-free metrics for the live serving stack
//!
//! The serving layer answers queries while content streams in; this
//! crate is how it *sees itself doing it*: counters, gauges and
//! latency histograms that are safe to update from the hottest path
//! — every recording operation is a handful of relaxed atomic
//! operations, no locks, no allocation, no panics — plus a registry
//! that names them and an exposition layer that renders them.
//!
//! * [`Counter`] / [`Gauge`] — one atomic cell behind a cloneable
//!   handle. Incrementing is a relaxed `fetch_add`.
//! * [`Histogram`] — a log-bucketed (HDR-style) latency/size
//!   distribution: 16 linear sub-buckets per power of two, values
//!   below 16 exact, relative quantile error bounded by 1/16
//!   (6.25%). Snapshots are mergeable and report nearest-rank
//!   p50/p90/p99 plus the exact observed max.
//! * [`catalog`] — one [`InstrumentSpec`] (name, kind, label keys,
//!   help) per instrument family, and [`CATALOG`] listing them all.
//! * [`Registry`] — registers instruments through catalog specs
//!   (series `name{label="value"}`), deduplicates registration, and
//!   snapshots every instrument for the dual exposition layer:
//!   Prometheus-style text with `# HELP` / `# TYPE` per family
//!   ([`Registry::render_text`]) and a `serde_json` value dump
//!   ([`Registry::to_json`]).
//! * [`TelemetryClock`] — the injectable time source behind every
//!   [`Stopwatch`]. Production uses [`RealClock`]
//!   (monotonic `Instant`); tests use [`ManualClock`]. Replay
//!   modules never read a wall clock themselves: they call
//!   closure-timing helpers (or record pre-measured durations) owned
//!   by code outside them, so replay determinism and observability
//!   coexist — `clippy::disallowed_types`, warned in each replay
//!   module, keeps it that way.
//!
//! Recording never panics and never blocks: the registry's interior
//! mutex is touched only at *registration* time (and by snapshots),
//! and even there a poisoned lock is recovered, not propagated —
//! instruments hold plain atomics, so there is no broken invariant
//! to inherit.

#![warn(missing_docs)]
// Panic-freedom on the serving path (obs_live and every crate it
// links): runtime code returns errors instead of panicking, and a
// waiver is an `#[expect]` with a reason.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod catalog;
pub mod clock;
pub mod counter;
pub mod expose;
pub mod histogram;
pub mod registry;
pub mod span;

pub use catalog::{InstrumentKind, InstrumentSpec, CATALOG};
pub use clock::{ManualClock, RealClock, SharedClock, TelemetryClock};
pub use counter::{Counter, Gauge};
pub use expose::{render_text, to_json, MetricSnapshot, MetricValue};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::Registry;
pub use span::Stopwatch;
