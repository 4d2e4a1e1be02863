//! Structured event tracing for engine runs.
//!
//! The per-run counters in [`crate::metrics`] say *how much* happened;
//! this module records *when and where*: a cheap, optionally-enabled
//! stream of [`TraceEvent`]s (spawns, migrations, memory ops, NACKs,
//! retries, slot stalls) stamped with the simulated time, the nodelet,
//! and — where one is in scope — the threadlet.
//!
//! ## Cost model
//!
//! Tracing is **zero-cost when disabled**: the engine holds an
//! `Option<TraceRecorder>` and every emission site is a single
//! `is_some` branch on the off path (verified by the `trace_overhead`
//! microbench in `crates/bench`). When enabled, the recorder is a
//! bounded ring buffer: once `capacity` events are held, the oldest is
//! evicted and [`TraceLog::dropped`] counts the loss, so a trace can
//! never exhaust memory on a long run — and never lies about being
//! complete.
//!
//! Recording never touches simulated time, so enabling a trace cannot
//! change the timing, counters, or checksum of a run.
//!
//! ## Enablement
//!
//! The benchmark runners construct their own engines internally; to
//! trace them without threading a flag through every call signature,
//! [`crate::engine::Engine::new`] takes its [`TelemetryConfig`] from the
//! current [`crate::ctx::RunCtx`], and a ctx with a report sink
//! receives every finished run's report
//! ([`crate::ctx::RunCtx::collect`]).

use crate::addr::NodeletId;
use crate::kernel::ThreadId;
use desim::time::Time;
use std::collections::VecDeque;

/// What happened. One variant per instrumented engine site; each maps
/// 1:1 onto a [`crate::metrics::NodeletCounters`] field, so summing a
/// lossless trace by kind reproduces the counters exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    /// A threadlet was created (counted at the nodelet it lands on).
    Spawn,
    /// A context departed through the local migration engine.
    MigrateOut,
    /// A migrated context arrived at its destination.
    MigrateIn,
    /// A load was served by the local memory channel.
    LocalLoad,
    /// A store was served by the local memory channel.
    LocalStore,
    /// A memory-side atomic was served by the local channel.
    Atomic,
    /// A remote store/atomic packet arrived from another nodelet.
    RemotePacket,
    /// An arrival had to wait for a free hardware thread slot.
    SlotWait,
    /// The migration engine refused a context (injected NACK).
    MigNack,
    /// A NACKed migration was re-offered after backoff.
    MigRetry,
    /// The memory channel absorbed an ECC-style scrub-and-retry.
    EccRetry,
    /// A packet was retransmitted on the node's outbound link.
    LinkRetransmit,
    /// Traffic for a dead nodelet was absorbed here.
    Redirect,
    /// A threadlet ran to completion and released its slot.
    Quit,
}

impl TraceKind {
    /// Every kind, in declaration order (for reductions and reports).
    pub const ALL: [TraceKind; 14] = [
        TraceKind::Spawn,
        TraceKind::MigrateOut,
        TraceKind::MigrateIn,
        TraceKind::LocalLoad,
        TraceKind::LocalStore,
        TraceKind::Atomic,
        TraceKind::RemotePacket,
        TraceKind::SlotWait,
        TraceKind::MigNack,
        TraceKind::MigRetry,
        TraceKind::EccRetry,
        TraceKind::LinkRetransmit,
        TraceKind::Redirect,
        TraceKind::Quit,
    ];

    /// Stable snake_case name, used verbatim in the JSONL and Chrome
    /// trace exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Spawn => "spawn",
            TraceKind::MigrateOut => "migrate_out",
            TraceKind::MigrateIn => "migrate_in",
            TraceKind::LocalLoad => "local_load",
            TraceKind::LocalStore => "local_store",
            TraceKind::Atomic => "atomic",
            TraceKind::RemotePacket => "remote_packet",
            TraceKind::SlotWait => "slot_wait",
            TraceKind::MigNack => "mig_nack",
            TraceKind::MigRetry => "mig_retry",
            TraceKind::EccRetry => "ecc_retry",
            TraceKind::LinkRetransmit => "link_retransmit",
            TraceKind::Redirect => "redirect",
            TraceKind::Quit => "quit",
        }
    }
}

/// One recorded engine event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: Time,
    /// Nodelet the event is attributed to (same attribution as the
    /// matching [`crate::metrics::NodeletCounters`] field).
    pub nodelet: NodeletId,
    /// The threadlet involved, when one is in scope (channel-level
    /// events like remote packets and ECC retries have none).
    pub thread: Option<ThreadId>,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded ring buffer of [`TraceEvent`]s with a drop count.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRecorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            dropped: 0,
        }
    }

    /// Record one event, evicting the oldest when full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finalize into an immutable [`TraceLog`].
    pub fn into_log(self) -> TraceLog {
        TraceLog {
            events: self.events.into(),
            dropped: self.dropped,
            capacity: self.capacity,
        }
    }
}

/// The finalized event stream of one run, attached to
/// [`crate::metrics::RunReport::trace`].
#[derive(Debug, Clone)]
pub struct TraceLog {
    /// Retained events, in nondecreasing time order.
    pub events: Vec<TraceEvent>,
    /// Events evicted because the ring was full. A nonzero value means
    /// the *oldest* part of the run is missing from `events`.
    pub dropped: u64,
    /// Ring capacity the run was recorded with.
    pub capacity: usize,
}

impl TraceLog {
    /// Number of retained events of `kind`.
    pub fn count_of(&self, kind: TraceKind) -> u64 {
        self.events.iter().filter(|e| e.kind == kind).count() as u64
    }

    /// Whether every emitted event was retained (no ring eviction).
    pub fn is_lossless(&self) -> bool {
        self.dropped == 0
    }

    /// Total events emitted by the run (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }
}

/// What telemetry an engine should collect, applied at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Ring capacity for the event recorder; 0 disables event tracing.
    pub event_capacity: usize,
    /// Bucket width for per-nodelet time series (occupancy timelines,
    /// queue-depth and live-threadlet gauges); `None` disables them.
    pub timeline_bucket: Option<Time>,
}

impl TelemetryConfig {
    /// Everything disabled (the default).
    pub fn off() -> Self {
        TelemetryConfig::default()
    }

    /// Whether any collection is enabled.
    pub fn enabled(&self) -> bool {
        self.event_capacity > 0 || self.timeline_bucket.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ps: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: Time::from_ps(ps),
            nodelet: NodeletId(0),
            thread: Some(ThreadId(7)),
            kind,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = TraceRecorder::new(3);
        for i in 0..5 {
            r.record(ev(i, TraceKind::Spawn));
        }
        let log = r.into_log();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 2);
        assert_eq!(log.emitted(), 5);
        assert!(!log.is_lossless());
        // The newest events survive.
        assert_eq!(log.events[0].at, Time::from_ps(2));
        assert_eq!(log.events[2].at, Time::from_ps(4));
    }

    #[test]
    fn lossless_below_capacity() {
        let mut r = TraceRecorder::new(8);
        r.record(ev(1, TraceKind::MigrateOut));
        r.record(ev(2, TraceKind::MigNack));
        let log = r.into_log();
        assert!(log.is_lossless());
        assert_eq!(log.count_of(TraceKind::MigrateOut), 1);
        assert_eq!(log.count_of(TraceKind::MigNack), 1);
        assert_eq!(log.count_of(TraceKind::Quit), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = TraceRecorder::new(0);
        r.record(ev(1, TraceKind::Quit));
        r.record(ev(2, TraceKind::Quit));
        let log = r.into_log();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.dropped, 1);
    }

    #[test]
    fn kind_names_are_stable_and_unique() {
        let names: Vec<_> = TraceKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(TraceKind::Spawn.name(), "spawn");
    }
}
