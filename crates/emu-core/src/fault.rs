//! Deterministic fault injection and structured simulation errors.
//!
//! The Chick the paper measured was a partially degraded machine: one
//! usable node, 1.0 firmware running the migration engine well below its
//! simulated rate (Fig 10: 9 M vs 16 M migrations/s), and runs aborted by
//! immature system software. A [`FaultPlan`] makes that kind of machine a
//! first-class simulation target: per-nodelet slowdowns, dead nodelets
//! whose traffic is redirected to live neighbors, migration-engine NACKs
//! with bounded exponential backoff, ECC-style memory retries, and link
//! drops — all driven by a seed so a given plan replays byte-for-byte.
//!
//! Failures that cannot degrade gracefully (invalid configuration, retry
//! budgets exhausted, a stalled event loop) surface as [`SimError`]
//! instead of panics or hangs.

use crate::addr::NodeletId;
use crate::kernel::ThreadId;
use desim::time::Time;
use std::fmt;

/// Structured failure of a simulation run.
///
/// Returned by [`crate::engine::Engine::new`],
/// [`crate::engine::Engine::spawn_at`] and [`crate::engine::Engine::run`]
/// instead of panicking: every path reachable from user-supplied
/// configuration reports through this type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The [`crate::config::MachineConfig`] (or its fault plan) failed
    /// validation.
    InvalidConfig(String),
    /// A spawn targeted a nodelet outside the machine.
    SpawnOutOfRange {
        /// The requested nodelet.
        nodelet: NodeletId,
        /// Number of nodelets in the machine.
        total: u32,
    },
    /// A kernel operation (load, store, migrate, remote spawn) referenced
    /// a nodelet outside the machine.
    TargetOutOfRange {
        /// The referenced nodelet.
        nodelet: NodeletId,
        /// Number of nodelets in the machine.
        total: u32,
    },
    /// Every nodelet in the fault plan is dead — nothing can run.
    AllNodeletsDead,
    /// A thread was scheduled to run but its kernel was already taken
    /// (an engine-state corruption the watchdog turns into an error).
    MissingKernel {
        /// The thread without a kernel.
        thread: ThreadId,
    },
    /// The event queue drained while threads were still alive — a
    /// deadlock (e.g. threads parked on slots that can never free).
    Stalled {
        /// Threads still alive at the stall.
        live: u64,
        /// Simulation time at the stall.
        at: Time,
    },
    /// A migration (or link retransmit) exceeded its retry budget.
    RetryBudgetExhausted {
        /// The thread whose operation was abandoned.
        thread: ThreadId,
        /// The nodelet whose engine kept NACKing.
        nodelet: NodeletId,
        /// Retries performed before giving up.
        retries: u32,
    },
    /// The run processed more events than the plan's wall-event cap —
    /// the watchdog's defense against livelock (e.g. migration storms).
    EventCapExceeded {
        /// The configured cap.
        cap: u64,
    },
    /// The run's wall-clock deadline passed mid-run (see
    /// [`crate::ctx::RunCtx::deadline`]). Unlike the deterministic
    /// event cap, where the run stops depends on host speed — callers use
    /// this as a typed timeout, not a reproducible simulation outcome.
    DeadlineExceeded {
        /// The wall-clock budget that expired, in milliseconds.
        deadline_ms: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(why) => write!(f, "invalid MachineConfig: {why}"),
            SimError::SpawnOutOfRange { nodelet, total } => {
                write!(
                    f,
                    "spawn target {nodelet:?} outside machine of {total} nodelets"
                )
            }
            SimError::TargetOutOfRange { nodelet, total } => {
                write!(
                    f,
                    "kernel op targets {nodelet:?} outside machine of {total} nodelets"
                )
            }
            SimError::AllNodeletsDead => write!(f, "fault plan marks every nodelet dead"),
            SimError::MissingKernel { thread } => {
                write!(f, "thread {thread:?} scheduled without a kernel")
            }
            SimError::Stalled { live, at } => {
                write!(f, "simulation stalled at {at} with {live} threads alive")
            }
            SimError::RetryBudgetExhausted {
                thread,
                nodelet,
                retries,
            } => write!(
                f,
                "thread {thread:?} exhausted {retries} retries at nodelet {nodelet:?}"
            ),
            SimError::EventCapExceeded { cap } => {
                write!(f, "watchdog: event cap of {cap} exceeded (livelock?)")
            }
            SimError::DeadlineExceeded { deadline_ms } => {
                write!(
                    f,
                    "watchdog: wall-clock deadline of {deadline_ms} ms exceeded"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A deterministic, seeded fault-injection plan.
///
/// The default plan ([`FaultPlan::none`]) injects nothing and leaves the
/// engine's timing bit-for-bit identical to a fault-free build. All
/// stochastic decisions derive from `seed` and a per-run draw counter,
/// so the same plan on the same workload replays exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every stochastic fault decision in the run.
    pub seed: u64,
    /// Per-nodelet service-time multipliers (cores, channel, migration
    /// engine). Indexed by nodelet; missing entries mean 1.0 (nominal).
    pub slowdown: Vec<f64>,
    /// Per-nodelet liveness: `true` marks a dead nodelet whose arrivals,
    /// memory and spawns are redirected to the nearest live nodelet.
    /// Missing entries mean alive.
    pub dead: Vec<bool>,
    /// Probability a migration-engine offer is NACKed (retried after
    /// exponential backoff).
    pub mig_nack_prob: f64,
    /// Base backoff before a NACKed migration retries (doubles per
    /// consecutive NACK, capped at 64x).
    pub mig_backoff: Time,
    /// Consecutive NACKs tolerated per migration before the run aborts
    /// with [`SimError::RetryBudgetExhausted`].
    pub mig_retry_budget: u32,
    /// Probability a memory-channel access takes an ECC-style retry.
    pub ecc_prob: f64,
    /// Extra channel occupancy per ECC retry.
    pub ecc_latency: Time,
    /// Probability an inter-node link packet is dropped and retransmitted.
    pub link_drop_prob: f64,
    /// Retransmits tolerated per packet before the run aborts.
    pub link_retry_budget: u32,
    /// Watchdog wall-event cap; 0 disables the cap.
    pub max_events: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The zero-fault plan: no slowdowns, no dead nodelets, no NACKs, no
    /// ECC retries, no link drops, no event cap.
    pub fn none() -> Self {
        FaultPlan {
            seed: desim::rng::DEFAULT_SEED,
            slowdown: Vec::new(),
            dead: Vec::new(),
            mig_nack_prob: 0.0,
            mig_backoff: Time::from_ns(500),
            mig_retry_budget: 16,
            ecc_prob: 0.0,
            ecc_latency: Time::from_ns(100),
            link_drop_prob: 0.0,
            link_retry_budget: 16,
            max_events: 0,
        }
    }

    /// Whether this plan injects nothing (the engine takes the exact
    /// baseline timing path).
    pub fn is_none(&self) -> bool {
        self.slowdown.iter().all(|&f| f == 1.0)
            && !self.dead.iter().any(|&d| d)
            && self.mig_nack_prob == 0.0
            && self.ecc_prob == 0.0
            && self.link_drop_prob == 0.0
    }

    /// Service-time multiplier for `nodelet` (1.0 when unspecified).
    #[inline]
    pub fn slow_factor(&self, nodelet: usize) -> f64 {
        self.slowdown.get(nodelet).copied().unwrap_or(1.0)
    }

    /// Whether `nodelet` is marked dead.
    #[inline]
    pub fn is_dead(&self, nodelet: usize) -> bool {
        self.dead.get(nodelet).copied().unwrap_or(false)
    }

    /// Number of dead nodelets in the plan.
    pub fn dead_count(&self) -> usize {
        self.dead.iter().filter(|&&d| d).count()
    }

    /// Mark a deterministic, seed-chosen fraction of `total` nodelets
    /// dead (rounded down).
    pub fn with_dead_fraction(mut self, total: u32, fraction: f64) -> Self {
        let k = ((total as f64 * fraction).floor() as usize).min(total as usize);
        let perm = desim::rng::permutation(total as usize, self.seed ^ 0xDEAD);
        self.dead = vec![false; total as usize];
        for &n in perm.iter().take(k) {
            self.dead[n as usize] = true;
        }
        self
    }

    /// Slow a deterministic, seed-chosen fraction of `total` nodelets
    /// down by `factor` (rounded down).
    pub fn with_slow_fraction(mut self, total: u32, fraction: f64, factor: f64) -> Self {
        let k = ((total as f64 * fraction).floor() as usize).min(total as usize);
        let perm = desim::rng::permutation(total as usize, self.seed ^ 0x510);
        self.slowdown = vec![1.0; total as usize];
        for &n in perm.iter().take(k) {
            self.slowdown[n as usize] = factor;
        }
        self
    }

    /// Validate plan invariants; returns the first violation.
    pub fn validate(&self, total_nodelets: u32) -> Result<(), String> {
        for (name, p) in [
            ("mig_nack_prob", self.mig_nack_prob),
            ("ecc_prob", self.ecc_prob),
            ("link_drop_prob", self.link_drop_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        for (i, &f) in self.slowdown.iter().enumerate() {
            if !f.is_finite() || f < 1.0 {
                return Err(format!("slowdown[{i}] must be finite and >= 1.0, got {f}"));
            }
        }
        if self.slowdown.len() > total_nodelets as usize {
            return Err(format!(
                "slowdown has {} entries for {total_nodelets} nodelets",
                self.slowdown.len()
            ));
        }
        if self.dead.len() > total_nodelets as usize {
            return Err(format!(
                "dead has {} entries for {total_nodelets} nodelets",
                self.dead.len()
            ));
        }
        if self.mig_nack_prob > 0.0 && self.mig_backoff == Time::ZERO {
            return Err("mig_backoff must be positive when NACKs are enabled".into());
        }
        Ok(())
    }
}

/// Deterministic uniform draw in `[0, 1)` for fault decision `n` of a
/// run seeded with `seed`. Stateless: the engine feeds a monotone draw
/// counter, so replaying the same event sequence replays the decisions.
#[inline]
pub(crate) fn unit_draw(seed: u64, n: u64) -> f64 {
    let mut s = seed ^ n.wrapping_mul(0xA076_1D64_78BD_642F);
    let z = desim::rng::splitmix64(&mut s);
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// [`unit_draw`] on an independent per-shard lane: `shard` perturbs the
/// seed so each shard of a partitioned engine owns a private draw
/// stream. Shard-local streams make fault decisions a function of that
/// shard's own event sequence alone — the property that lets the
/// sharded backend replay identically at any worker count, since no
/// global draw counter has to be agreed on across shards.
#[inline]
pub(crate) fn unit_draw_for(seed: u64, shard: u32, n: u64) -> f64 {
    let lane = seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    unit_draw(lane, n)
}

/// Nearest-live-nodelet redirect map: `map[i]` is `i` itself when alive,
/// else the closest live nodelet by index distance (ties toward the
/// higher index, wrapping). Returns [`SimError::AllNodeletsDead`] if no
/// nodelet is live.
pub(crate) fn redirect_map(plan: &FaultPlan, total: u32) -> Result<Vec<u32>, SimError> {
    let n = total as usize;
    if (0..n).all(|i| plan.is_dead(i)) {
        return Err(SimError::AllNodeletsDead);
    }
    let mut map = Vec::with_capacity(n);
    for i in 0..n {
        if !plan.is_dead(i) {
            map.push(i as u32);
            continue;
        }
        let mut target = None;
        for d in 1..n {
            let up = (i + d) % n;
            if !plan.is_dead(up) {
                target = Some(up as u32);
                break;
            }
            let down = (i + n - d) % n;
            if !plan.is_dead(down) {
                target = Some(down as u32);
                break;
            }
        }
        map.push(target.expect("at least one live nodelet"));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::none().validate(8).is_ok());
    }

    #[test]
    fn dead_fraction_is_deterministic_and_sized() {
        let a = FaultPlan::none().with_dead_fraction(8, 0.5);
        let b = FaultPlan::none().with_dead_fraction(8, 0.5);
        assert_eq!(a, b);
        assert_eq!(a.dead_count(), 4);
        assert!(!a.is_none());
    }

    #[test]
    fn slow_fraction_marks_factor() {
        let p = FaultPlan::none().with_slow_fraction(8, 0.25, 4.0);
        assert_eq!(p.slowdown.iter().filter(|&&f| f == 4.0).count(), 2);
        assert!(p.validate(8).is_ok());
    }

    #[test]
    fn validate_rejects_bad_probs_and_factors() {
        let mut p = FaultPlan::none();
        p.mig_nack_prob = 1.5;
        assert!(p.validate(8).is_err());
        let mut p = FaultPlan::none();
        p.slowdown = vec![0.5];
        assert!(p.validate(8).is_err());
        let mut p = FaultPlan::none();
        p.dead = vec![false; 9];
        assert!(p.validate(8).is_err());
    }

    #[test]
    fn redirect_points_dead_to_nearest_live() {
        let mut p = FaultPlan::none();
        p.dead = vec![false, true, true, false];
        let m = redirect_map(&p, 4).unwrap();
        assert_eq!(m, vec![0, 0, 3, 3]);
        // ties toward the higher index
        let mut p = FaultPlan::none();
        p.dead = vec![false, true, false];
        assert_eq!(redirect_map(&p, 3).unwrap(), vec![0, 2, 2]);
    }

    #[test]
    fn redirect_rejects_all_dead() {
        let mut p = FaultPlan::none();
        p.dead = vec![true; 4];
        assert_eq!(redirect_map(&p, 4), Err(SimError::AllNodeletsDead));
    }

    #[test]
    fn unit_draw_is_deterministic_and_uniformish() {
        assert_eq!(unit_draw(7, 0), unit_draw(7, 0));
        assert_ne!(unit_draw(7, 0), unit_draw(7, 1));
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit_draw(42, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert!((0..n).all(|i| (0.0..1.0).contains(&unit_draw(42, i))));
    }

    #[test]
    fn shard_lanes_are_deterministic_and_independent() {
        assert_eq!(unit_draw_for(7, 0, 3), unit_draw_for(7, 0, 3));
        // Different shards see different streams from the same seed.
        assert_ne!(unit_draw_for(7, 0, 3), unit_draw_for(7, 1, 3));
        // A lane is still a well-behaved uniform source.
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit_draw_for(42, 5, i)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
