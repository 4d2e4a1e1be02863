//! Shared run-size configuration for the figure binaries.
//!
//! Sizing and sweep jobs come from the current [`RunCtx`]: outside any
//! scope that is the environment (`EMU_QUICK=1` divides workload sizes
//! by 8, which is useful for smoke-testing the full harness in seconds;
//! `EMU_JOBS` sets the sweep workers). [`with_flags`] applies the
//! `--jobs` and `--sim-threads` flags that the figure binaries, `simctl`
//! and `simctl scenario run` share.

use emu_core::ctx::{host_cores, RunCtx};

/// Default trace ring capacity for `--trace-events` (figure binaries).
/// `simctl trace` defaults to 4x this: it exists to be looked at, while
/// a traced figure run mostly wants the counters and timelines.
pub const DEFAULT_TRACE_EVENTS: usize = 16384;

/// Default timeline bucket width in microseconds for `--trace-bucket-us`.
pub const DEFAULT_TRACE_BUCKET_US: u64 = 20;

/// Worker threads to fan sweep points across: the current ctx's job
/// count (`--jobs`/`-j`, else `EMU_JOBS`, else the host's available
/// parallelism). Never zero.
pub fn jobs() -> usize {
    RunCtx::with_current(|c| c.jobs.max(1))
}

/// Whether quick mode is on.
pub fn quick() -> bool {
    RunCtx::with_current(|c| c.quick)
}

/// Scale a nominal size down in quick mode (never below `min`).
pub fn sized(nominal: u64, min: u64) -> u64 {
    if quick() {
        (nominal / 8).max(min)
    } else {
        nominal
    }
}

/// Scale a usize size.
pub fn sized_usize(nominal: usize, min: usize) -> usize {
    sized(nominal as u64, min as u64) as usize
}

/// Parse `flag`'s value `v` as a count of at least 1; `or` names any
/// other accepted value in the error.
pub(crate) fn count(flag: &str, v: &str, or: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{flag}: expected a count of at least 1{or}, got {v:?}"
        )),
    }
}

/// Apply the values of `--jobs`/`-j` and `--sim-threads` (`None` when a
/// flag is absent) to `base`.
///
/// Each value is a count of at least 1; `--sim-threads auto` instead
/// splits the host's cores across the sweep jobs, so a parallel sweep
/// of parallel runs does not oversubscribe. `0` and anything else that
/// is not a count are usage errors.
pub fn with_flags(
    base: RunCtx,
    jobs: Option<&str>,
    sim_threads: Option<&str>,
) -> Result<RunCtx, String> {
    let mut ctx = base;
    if let Some(v) = jobs {
        ctx.jobs = count("--jobs", v, "")?;
    }
    if let Some(v) = sim_threads {
        ctx.sim_threads = if v == "auto" {
            (host_cores() / ctx.jobs.max(1)).max(1)
        } else {
            count("--sim-threads", v, " or auto")?
        };
    }
    Ok(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_respects_min() {
        let quick = RunCtx {
            quick: true,
            ..RunCtx::default()
        };
        quick.scope(|| {
            assert_eq!(sized(64, 32), 32);
            assert_eq!(sized(1024, 16), 128);
        });
        RunCtx::default().scope(|| assert_eq!(sized(1024, 16), 1024));
    }

    #[test]
    fn flags_parse_counts_auto_and_reject_the_rest() {
        let base = RunCtx {
            jobs: 3,
            sim_threads: 5,
            ..RunCtx::default()
        };
        let auto_at = |jobs: usize| (host_cores() / jobs).max(1);
        // (jobs, sim-threads) -> Some((jobs, sim_threads)), or None for
        // a usage error.
        type Case<'a> = (Option<&'a str>, Option<&'a str>, Option<(usize, usize)>);
        let table: [Case; 16] = [
            (None, None, Some((3, 5))),
            (Some("4"), None, Some((4, 5))),
            (None, Some("2"), Some((3, 2))),
            (Some("1"), Some("1"), Some((1, 1))),
            (Some("2"), Some("auto"), Some((2, auto_at(2)))),
            (None, Some("auto"), Some((3, auto_at(3)))),
            (Some("0"), None, None),
            (None, Some("0"), None),
            (Some("lots"), None, None),
            (None, Some("lots"), None),
            (Some("-1"), None, None),
            (Some(""), None, None),
            (Some(" 2"), None, None),
            (Some("auto"), None, None),
            (None, Some("AUTO"), None),
            (Some("2"), Some("2.5"), None),
        ];
        for (jobs, sim, want) in table {
            let got = with_flags(base.clone(), jobs, sim)
                .ok()
                .map(|c| (c.jobs, c.sim_threads));
            assert_eq!(got, want, "--jobs {jobs:?} --sim-threads {sim:?}");
        }
        let err = with_flags(base, None, Some("0")).unwrap_err();
        assert!(
            err.contains("--sim-threads") && err.contains("auto"),
            "{err}"
        );
    }
}
