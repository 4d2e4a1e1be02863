//! Output checks and golden digests.
//!
//! Every check a workload makes on the system's output (a checksum, an
//! empty audit, a byte comparison, a golden digest) is one attempted
//! operation that can fail; `failed / attempted` is the run's error
//! rate. The golden file pins the seed-independent outputs so a change
//! that claims only speed can show that what the simulator computes did
//! not move by a byte.

use std::collections::BTreeMap;

/// Attempted and failed output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one check; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Count `n` checks that passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count a failed check.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.check(false, what);
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Compare `bytes` against the golden digest stored under `key`.
    pub fn golden(&mut self, golden: &Golden, key: &str, bytes: &str) {
        let got = digest(bytes);
        match golden.0.get(key) {
            Some(want) => self.check(*want == got, || {
                format!("golden {key}: digest {got} != committed {want}")
            }),
            None => self.fail(|| format!("golden {key}: no committed digest")),
        }
    }
}

/// SHA-256 hex digest of `bytes` (the result cache's own hash).
pub fn digest(bytes: &str) -> String {
    runcache::sha256::hex_digest(bytes.as_bytes())
}

/// The committed `golden.txt`: one `name digest` pair per line.
#[derive(Debug, Clone, Default)]
pub struct Golden(pub BTreeMap<String, String>);

/// The golden digests compiled into this binary.
pub const GOLDEN_TXT: &str = include_str!("../golden.txt");

impl Golden {
    pub fn parse(text: &str) -> Golden {
        Golden(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k.to_string(), v.trim().to_string()))
                })
                .collect(),
        )
    }

    pub fn committed() -> Golden {
        Golden::parse(GOLDEN_TXT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_golden_drives_error_rate_above_zero() {
        let text = "table-x";
        let good = Golden::parse(&format!("# comment\nt {}\n", digest(text)));
        let mut checks = Checks::default();
        checks.golden(&good, "t", text);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        assert_eq!(checks.error_rate(), 0.0);

        let mut corrupt = good.clone();
        corrupt.0.insert("t".into(), digest("table-y"));
        checks.golden(&corrupt, "t", text);
        checks.golden(&Golden::default(), "t", text);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert!(checks.error_rate() > 0.0);
    }

    #[test]
    fn committed_golden_parses() {
        let g = Golden::committed();
        assert!(g.0.values().all(|d| d.len() == 64), "{g:?}");
    }
}
