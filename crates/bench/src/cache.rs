//! Content-addressed memoization of figure points.
//!
//! Every figure cell is computed from the measured numbers of one
//! point — a fully-resolved machine and workload — so a re-run of an
//! unchanged campaign can serve each point from [`runcache`] instead of
//! re-simulating it. The key is the point alone, never the figure that
//! asks: Fig 8 finds the chase points of Figs 6 and 7 already stored,
//! and the headline table finds the peaks, ping-pongs and chases of
//! Figs 5, 8 and 10. The memo layer is inert unless
//! [`runcache::active`]: the current [`emu_core::ctx::RunCtx`] has the
//! cache on (`EMU_CACHE=1` outside any scope) and is not observed — a
//! traced, profiled, or report-collecting run must execute every point
//! for its artifacts to mean anything.
//!
//! Keys hash the `Debug` rendering of the resolved configs, so the
//! `EMU_QUICK` sizing, preset overrides, and seeds all flow into the
//! digest; a knob flip is a different key, never a stale hit.

use emu_core::fault::SimError;
use std::fmt::Debug;

/// Memoize the measured numbers of one point: `f` runs on a miss, and
/// its numbers are stored under the digest of `machine` and `workload`.
/// Payloads are the numbers' shortest round-trip renderings, so a value
/// read back is bit-identical to the one computed.
pub fn memo<const N: usize>(
    machine: &impl Debug,
    workload: &impl Debug,
    f: impl FnOnce() -> Result<[f64; N], SimError>,
) -> Result<[f64; N], SimError> {
    if !runcache::active() {
        return f();
    }
    let mut k = runcache::Key::new("figpoint");
    k.record_debug("machine", machine);
    k.record_debug("workload", workload);
    let d = k.digest();
    let stored = runcache::lookup(&d).and_then(|e| {
        let v: Vec<f64> = e
            .payload
            .split(' ')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        v.try_into().ok()
    });
    if let Some(v) = stored {
        return Ok(v);
    }
    let v = f()?;
    runcache::publish(
        &d,
        &runcache::Entry {
            kind: "figpoint".into(),
            label: format!("{workload:?}"),
            payload: v.map(|x| format!("{x:?}")).join(" "),
            recipe: None,
        },
    );
    Ok(v)
}

/// One-line session summary, printed by `all_figures` when the cache is
/// enabled so CI (and humans) can see a warm run re-simulated nothing.
pub fn session_summary() -> String {
    let s = runcache::session_stats();
    format!(
        "[runcache] hits={} misses={} stores={} dir={}",
        s.hits,
        s.misses,
        s.stores,
        runcache::resolve_dir().display()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use emu_core::ctx::RunCtx;
    use emu_core::prelude::presets;
    use membench::chase::{ChaseConfig, ShuffleMode};
    use scenario::ResolvedWorkload::Chase;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn memo_is_inert_when_disabled() {
        // A ctx with the cache off: both calls must run.
        let calls = AtomicUsize::new(0);
        RunCtx::default().scope(|| {
            for _ in 0..2 {
                let v = memo(&"m", &"w", || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    Ok([1.5])
                })
                .unwrap();
                assert_eq!(v, [1.5]);
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn two_figures_share_one_point_and_workloads_stay_apart() {
        let dir = std::env::temp_dir().join(format!("emu-bench-memo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = RunCtx {
            cache: Some(dir.clone()),
            ..RunCtx::default()
        };
        let cfg = presets::chick_prototype();
        let sims = AtomicUsize::new(0);
        let mbs = |w: scenario::ResolvedWorkload| {
            let [mbs] = memo(&cfg, &w, || {
                sims.fetch_add(1, Ordering::SeqCst);
                let x = scenario::exec::execute(&cfg, &w)?;
                assert!(x.problems.is_empty(), "{:?}", x.problems);
                Ok([x.bandwidth.unwrap().mb_per_sec()])
            })
            .unwrap();
            mbs
        };
        let chase = |elems_per_list, block_elems| ChaseConfig {
            elems_per_list,
            nlists: 8,
            block_elems,
            mode: ShuffleMode::FullBlock,
            seed: desim::rng::DEFAULT_SEED,
        };
        // Fig 6 sizes its lists once; Fig 8 pads each list to the block.
        let fig06 = |block| mbs(Chase(chase(64, block)));
        let fig08 = |block: usize| mbs(Chase(chase(64.max(block), block)));
        let stored = || runcache::Store::at(&dir).scan().len();
        let runs = || (sims.load(Ordering::SeqCst), stored());
        // At block 8 both name the same point.
        let (a, b) = ctx.scope(|| (fig06(8), fig08(8)));
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(runs(), (1, 1), "the second figure re-ran the point");
        ctx.scope(|| fig06(16));
        assert_eq!(runs(), (2, 2), "another workload hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn f64_payload_round_trips_exactly() {
        let x = 1_234.567_891_011_12_f64 / 3.0;
        let s = format!("{x:?}");
        assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits());
    }
}
