//! The deterministic generator behind the committed `scenarios/`
//! registry.
//!
//! `simctl scenario gen <dir>` writes [`files`] to disk; the committed
//! tree is asserted byte-identical to the generator's output by
//! `tests/registry.rs`, so the registry can never silently drift from
//! the code. Every machine preset is paired with every workload, the
//! enum-valued knobs (kernels, spawn strategies, shuffle modes,
//! layouts) are enumerated, sweeps carry monotonicity assertions,
//! fault plans carry recovery-counter assertions, and a byte-identity
//! group pins the PR 5 determinism invariant (identical reports at any
//! scheduler worker count) per preset and workload.
//!
//! Sizes are deliberately small: the whole registry is the default CI
//! conformance suite and must stay cheap enough to run on every push.

use crate::ast::*;
use crate::parse::parse_thread;
use membench::stream::StreamKernel;
use std::collections::BTreeMap;

/// The five machine presets, under their registry spellings.
pub const PRESETS: [&str; 5] = ["chick", "chick-sim", "full-speed", "emu64", "chick-8node"];

/// Single-node presets that need a `nodes` override before inter-node
/// link faults can fire.
const SINGLE_NODE: [&str; 3] = ["chick", "chick-sim", "full-speed"];

struct B {
    s: Scenario,
}

fn b(name: String, preset: &str, kind: WorkloadKind) -> B {
    B {
        s: Scenario {
            name,
            preset: preset.to_string(),
            machine_overrides: Vec::new(),
            workload: Workload {
                kind,
                params: BTreeMap::new(),
                threads: Vec::new(),
            },
            faults: Vec::new(),
            sweep: Vec::new(),
            expect: Vec::new(),
        },
    }
}

impl B {
    fn p(mut self, k: &str, v: impl ToString) -> B {
        self.s.params_insert(k, v.to_string());
        self
    }
    fn ov(mut self, k: &str, v: impl ToString) -> B {
        self.s.machine_overrides.push((k.into(), v.to_string()));
        self
    }
    fn fault(mut self, k: &str, v: impl ToString) -> B {
        self.s.faults.push((k.into(), v.to_string()));
        self
    }
    fn sweep(mut self, key: &str, vals: &[&str]) -> B {
        self.s.sweep.push(Axis {
            key: key.into(),
            values: vals.iter().map(|v| v.to_string()).collect(),
        });
        self
    }
    fn counter(mut self, metric: &str, op: CmpOp, value: f64) -> B {
        self.s.expect.push(Expect::Counter {
            metric: metric.into(),
            op,
            value,
        });
        self
    }
    fn oracle(mut self, name: &str, lo: f64, hi: f64) -> B {
        self.s.expect.push(Expect::Oracle {
            name: name.into(),
            lo,
            hi,
        });
        self
    }
    fn mono(mut self, metric: &str, dir: Direction, axis: &str) -> B {
        self.s.expect.push(Expect::Monotonic {
            metric: metric.into(),
            dir,
            axis: axis.into(),
        });
        self
    }
    fn byte_identical(mut self, counts: &[usize]) -> B {
        self.s.expect.push(Expect::ByteIdentical {
            sim_threads: counts.to_vec(),
        });
        self
    }
    fn thread(mut self, spec: &str) -> B {
        self.s
            .workload
            .threads
            .push(parse_thread(spec).expect("registry thread specs are valid"));
        self
    }
    /// Baseline liveness assertions every scenario carries.
    fn alive(self) -> B {
        self.counter("threads", CmpOp::Ge, 1.0)
            .counter("events", CmpOp::Ge, 1.0)
    }
    fn build(self) -> Scenario {
        self.s
    }
}

impl Scenario {
    fn params_insert(&mut self, k: &str, v: String) {
        self.workload.params.insert(k.to_string(), v);
    }
}

/// Small default geometries per workload — cheap enough that the whole
/// registry runs as the everyday conformance suite.
fn stream(name: String, preset: &str) -> B {
    b(name, preset, WorkloadKind::Stream)
        .p("elems", 1024)
        .p("threads", 32)
}

fn chase(name: String, preset: &str) -> B {
    b(name, preset, WorkloadKind::Chase)
        .p("elems_per_list", 256)
        .p("lists", 4)
        .p("block", 16)
}

fn bfs(name: String, preset: &str) -> B {
    b(name, preset, WorkloadKind::Bfs)
        .p("scale", 6)
        .p("edges", 256)
        .p("threads", 16)
}

fn mttkrp(name: String, preset: &str) -> B {
    b(name, preset, WorkloadKind::Mttkrp)
        .p("i", 8)
        .p("j", 6)
        .p("k", 6)
        .p("nnz", 80)
        .p("rank", 3)
        .p("threads", 24)
}

fn spmv(name: String, preset: &str) -> B {
    b(name, preset, WorkloadKind::Spmv).p("n", 8)
}

/// Two root threadlets touching both home nodelets — the smallest
/// script that still spawns, loads, stores, and migrates.
fn script(name: String, preset: &str) -> B {
    b(name, preset, WorkloadKind::Script)
        .thread("0 L0:8 C5 S1:8")
        .thread("1 L1:8 M0 C3")
}

/// Generate the whole registry, in a stable order with unique names.
pub fn generate() -> Vec<Scenario> {
    let mut out: Vec<Scenario> = Vec::new();

    // -- A: every preset x every workload family ----------------------
    for preset in PRESETS {
        out.push(
            stream(format!("base-stream-{preset}"), preset)
                .alive()
                .counter("bandwidth_bps", CmpOp::Gt, 0.0)
                .counter("bytes", CmpOp::Ge, 24.0 * 1024.0)
                .build(),
        );
        out.push(
            chase(format!("base-chase-{preset}"), preset)
                .alive()
                .counter("bandwidth_bps", CmpOp::Gt, 0.0)
                .counter("threads", CmpOp::Ge, 4.0)
                .build(),
        );
        out.push(
            bfs(format!("base-bfs-{preset}"), preset)
                .alive()
                .counter("edges_traversed", CmpOp::Ge, 1.0)
                .counter("depth", CmpOp::Ge, 1.0)
                .build(),
        );
        out.push(
            mttkrp(format!("base-mttkrp-{preset}"), preset)
                .alive()
                .counter("bandwidth_bps", CmpOp::Gt, 0.0)
                .build(),
        );
        out.push(
            spmv(format!("base-spmv-{preset}"), preset)
                .alive()
                .counter("bandwidth_bps", CmpOp::Gt, 0.0)
                .build(),
        );
        out.push(
            script(format!("base-script-{preset}"), preset)
                .counter("threads", CmpOp::Eq, 2.0)
                .counter("events", CmpOp::Ge, 1.0)
                .build(),
        );
    }

    // -- B: STREAM kernels --------------------------------------------
    for preset in PRESETS {
        for kernel in StreamKernel::ALL.map(StreamKernel::keyword) {
            out.push(
                stream(format!("stream-kernel-{kernel}-{preset}"), preset)
                    .p("kernel", kernel)
                    .alive()
                    .counter("bandwidth_bps", CmpOp::Gt, 0.0)
                    .build(),
            );
        }
    }

    // -- C: STREAM spawn strategies (the Fig 4/5 axis) ----------------
    for preset in PRESETS {
        for strategy in ["serial", "recursive", "serial-remote", "recursive-remote"] {
            out.push(
                stream(format!("stream-strategy-{strategy}-{preset}"), preset)
                    .p("strategy", strategy)
                    .alive()
                    .counter("spawns", CmpOp::Ge, 32.0)
                    .build(),
            );
        }
    }

    // -- D: STREAM confined to one nodelet (Fig 4) --------------------
    for preset in PRESETS {
        out.push(
            stream(format!("stream-single-nodelet-{preset}"), preset)
                .p("single_nodelet", 1)
                .p("threads", 8)
                .alive()
                .build(),
        );
    }

    // -- E: chase shuffle modes (Fig 2) -------------------------------
    for preset in PRESETS {
        for mode in ["ordered", "intra-block", "block-shuffle", "full-block"] {
            out.push(
                chase(format!("chase-mode-{mode}-{preset}"), preset)
                    .p("mode", mode)
                    .alive()
                    .counter("bytes", CmpOp::Ge, (256 * 4 * 16) as f64)
                    .build(),
            );
        }
    }

    // -- F: BFS traversal strategies ----------------------------------
    for preset in PRESETS {
        for mode in ["migrating", "remote-flags"] {
            out.push(
                bfs(format!("bfs-mode-{mode}-{preset}"), preset)
                    .p("mode", mode)
                    .alive()
                    .counter("edges_traversed", CmpOp::Ge, 1.0)
                    .build(),
            );
        }
    }

    // -- G: MTTKRP layouts --------------------------------------------
    for preset in PRESETS {
        for layout in ["1d", "slice-blocked"] {
            out.push(
                mttkrp(format!("mttkrp-layout-{layout}-{preset}"), preset)
                    .p("layout", layout)
                    .alive()
                    .build(),
            );
        }
    }

    // -- H: SpMV layouts (Fig 3) --------------------------------------
    for preset in PRESETS {
        for layout in ["local", "1d", "2d"] {
            out.push(
                spmv(format!("spmv-layout-{layout}-{preset}"), preset)
                    .p("layout", layout)
                    .alive()
                    .build(),
            );
        }
    }

    // -- I: sweeps with monotonicity ----------------------------------
    for preset in PRESETS {
        out.push(
            stream(format!("sweep-stream-elems-{preset}"), preset)
                .sweep("elems", &["256", "512", "1024"])
                .alive()
                .mono("events", Direction::NonDecreasing, "elems")
                .mono("bytes", Direction::NonDecreasing, "elems")
                .mono("makespan_ps", Direction::NonDecreasing, "elems")
                .build(),
        );
        out.push(
            chase(format!("sweep-chase-lists-{preset}"), preset)
                .sweep("lists", &["2", "4", "8"])
                .alive()
                .mono("events", Direction::NonDecreasing, "lists")
                .mono("bytes", Direction::NonDecreasing, "lists")
                .build(),
        );
        out.push(
            spmv(format!("sweep-spmv-n-{preset}"), preset)
                .sweep("n", &["6", "8", "10"])
                .alive()
                .mono("events", Direction::NonDecreasing, "n")
                .mono("bytes", Direction::NonDecreasing, "n")
                .build(),
        );
        out.push(
            stream(format!("sweep-stream-elems-kernel-{preset}"), preset)
                .sweep("elems", &["256", "512"])
                .sweep("kernel", &["add", "copy"])
                .alive()
                .mono("events", Direction::NonDecreasing, "elems")
                .build(),
        );
    }

    // -- J: byte-identity across scheduler worker counts --------------
    for preset in PRESETS {
        // The PR 5 invariant is the suite's strongest determinism
        // check; the flagship preset also pins four workers.
        let counts: &[usize] = if preset == "chick" {
            &[1, 2, 4]
        } else {
            &[1, 2]
        };
        out.push(
            stream(format!("ident-stream-{preset}"), preset)
                .p("elems", 512)
                .p("threads", 16)
                .alive()
                .byte_identical(counts)
                .build(),
        );
        out.push(
            chase(format!("ident-chase-{preset}"), preset)
                .p("elems_per_list", 128)
                .p("lists", 4)
                .alive()
                .byte_identical(counts)
                .build(),
        );
        out.push(
            mttkrp(format!("ident-mttkrp-{preset}"), preset)
                .p("nnz", 48)
                .alive()
                .byte_identical(counts)
                .build(),
        );
        out.push(
            spmv(format!("ident-spmv-{preset}"), preset)
                .p("n", 6)
                .alive()
                .byte_identical(counts)
                .build(),
        );
        out.push(
            script(format!("ident-script-{preset}"), preset)
                .counter("threads", CmpOp::Eq, 2.0)
                .byte_identical(counts)
                .build(),
        );
    }

    // -- K: seeded fault plans with recovery-counter assertions -------
    for preset in PRESETS {
        out.push(
            chase(format!("fault-mig-nack-chase-{preset}"), preset)
                .fault("seed", 7)
                .fault("mig_nack_prob", "0.25")
                .fault("mig_backoff_ps", 200_000)
                .fault("mig_retry_budget", 32)
                .alive()
                .counter("nacks", CmpOp::Ge, 1.0)
                .counter("retries", CmpOp::Ge, 1.0)
                .build(),
        );
        out.push(
            stream(format!("fault-mig-nack-stream-{preset}"), preset)
                .p("strategy", "serial")
                .fault("seed", 11)
                .fault("mig_nack_prob", "0.2")
                .fault("mig_backoff_ps", 150_000)
                .fault("mig_retry_budget", 32)
                .alive()
                .counter("nacks", CmpOp::Ge, 1.0)
                .build(),
        );
        out.push(
            stream(format!("fault-ecc-stream-{preset}"), preset)
                .fault("seed", 13)
                .fault("ecc_prob", "0.2")
                .fault("ecc_latency_ps", 100_000)
                .alive()
                .counter("ecc_retries", CmpOp::Ge, 1.0)
                .build(),
        );
        out.push(
            spmv(format!("fault-ecc-spmv-{preset}"), preset)
                .fault("seed", 17)
                .fault("ecc_prob", "0.15")
                .fault("ecc_latency_ps", 80_000)
                .alive()
                .counter("ecc_retries", CmpOp::Ge, 1.0)
                .build(),
        );
        let mut link = stream(format!("fault-link-stream-{preset}"), preset)
            .fault("seed", 19)
            .fault("link_drop_prob", "0.2")
            .fault("link_retry_budget", 32);
        if SINGLE_NODE.contains(&preset) {
            link = link.ov("nodes", 2);
        }
        out.push(
            link.alive()
                .counter("link_retransmits", CmpOp::Ge, 1.0)
                .build(),
        );
        out.push(
            chase(format!("fault-dead-nodelet-chase-{preset}"), preset)
                .fault("seed", 23)
                .fault("dead", "0,1")
                .alive()
                .counter("redirects", CmpOp::Ge, 1.0)
                .build(),
        );
    }

    // -- L: closed-form performance oracles ---------------------------
    // Only the presets whose oracle bands are pinned by the
    // conformance tests; the bands repeat `conformance::oracle`'s own.
    for preset in ["chick", "chick-sim"] {
        out.push(
            stream(format!("oracle-stream-saturated-{preset}"), preset)
                .p("elems", 256)
                .p("threads", 8)
                .alive()
                .oracle("stream-saturated", 0.95, 1.02)
                .build(),
        );
        out.push(
            stream(format!("oracle-stream-single-thread-{preset}"), preset)
                .p("elems", 256)
                .p("threads", 8)
                .alive()
                .oracle("stream-single-thread", 0.98, 1.02)
                .build(),
        );
        out.push(
            stream(format!("oracle-migration-ceiling-{preset}"), preset)
                .p("elems", 256)
                .p("threads", 8)
                .alive()
                .oracle("migration-ceiling", 0.95, 1.01)
                .build(),
        );
        out.push(
            stream(format!("oracle-channel-peak-{preset}"), preset)
                .p("elems", 256)
                .p("threads", 8)
                .alive()
                .oracle("channel-peak", 0.97, 1.01)
                .build(),
        );
    }

    // -- M: script edge cases (all on the flagship preset) ------------
    let scripts: &[(&str, &[&str])] = &[
        ("single-thread-local", &["0 L0:8 C5 S0:8"]),
        ("single-thread-remote", &["0 L7:8 C5 S7:8"]),
        ("migrate-ping-pong", &["0 M1 M0 M1 M0 C2"]),
        (
            "atomic-contention",
            &["0 A3:8 A3:8", "1 A3:8 A3:8", "2 A3:8 A3:8"],
        ),
        (
            "remote-stores-fan-in",
            &["0 S4:8", "1 S4:8", "2 S4:8", "3 S4:8"],
        ),
        ("compute-only", &["0 C50", "1 C50"]),
        ("load-chain-across-nodelets", &["0 L1:8 L2:8 L3:8 L4:8"]),
        ("wide-loads", &["0 L0:64 L1:64", "1 L2:64 L3:64"]),
        ("store-then-load-same", &["0 S5:8 L5:8 C3"]),
        ("migrate-then-work", &["0 M6 L6:8 S6:8 C4"]),
        ("two-threads-same-home", &["2 L2:8 C3", "2 S2:8 C3"]),
        (
            "mixed-op-soup",
            &["0 L1:8 A2:8 C7 M3 S3:8", "1 S0:8 C2 L0:8"],
        ),
        ("max-nodelet-targets", &["0 L7:8 S7:8 A7:8"]),
        ("empty-thread-body", &["0", "1 C1"]),
        (
            "atomics-across-all",
            &["0 A0:8 A1:8 A2:8 A3:8 A4:8 A5:8 A6:8 A7:8"],
        ),
    ];
    for (tag, threads) in scripts {
        let mut sb = b(format!("script-{tag}-chick"), "chick", WorkloadKind::Script);
        for t in *threads {
            sb = sb.thread(t);
        }
        out.push(
            sb.counter("threads", CmpOp::Eq, threads.len() as f64)
                .counter("events", CmpOp::Ge, 1.0)
                .build(),
        );
    }

    // -- N: scripts under fault plans (lockstep harness + faults) -----
    // (tag, fault key/value overrides, script thread programs)
    type FaultScript<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [&'a str]);
    let fault_scripts: &[FaultScript] = &[
        (
            "nack",
            &[
                ("seed", "31"),
                ("mig_nack_prob", "0.5"),
                ("mig_backoff_ps", "100000"),
                ("mig_retry_budget", "64"),
            ],
            &["0 M1 M2 M3 M4 C2", "1 M0 M5 C2"],
        ),
        (
            "ecc",
            &[
                ("seed", "37"),
                ("ecc_prob", "0.5"),
                ("ecc_latency_ps", "50000"),
            ],
            &["0 L1:8 L2:8 L3:8 S1:8", "1 L0:8 S0:8"],
        ),
        (
            "dead-redirect",
            &[("seed", "41"), ("dead", "0,0,1")],
            &["0 L2:8 S2:8 C3", "1 M2 C3"],
        ),
        (
            "slowdown",
            &[("seed", "43"), ("slowdown", "1.0,4.0")],
            &["0 L1:8 S1:8 C5", "1 L0:8 C5"],
        ),
        (
            "nack-and-ecc",
            &[
                ("seed", "47"),
                ("mig_nack_prob", "0.3"),
                ("mig_backoff_ps", "100000"),
                ("mig_retry_budget", "64"),
                ("ecc_prob", "0.3"),
                ("ecc_latency_ps", "50000"),
            ],
            &["0 M1 L1:8 M2 S2:8", "1 L3:8 M3 C4"],
        ),
    ];
    for (tag, faults, threads) in fault_scripts {
        let mut sb = b(
            format!("script-fault-{tag}-chick"),
            "chick",
            WorkloadKind::Script,
        );
        for (k, v) in *faults {
            sb = sb.fault(k, v);
        }
        for t in *threads {
            sb = sb.thread(t);
        }
        out.push(
            sb.counter("threads", CmpOp::Eq, threads.len() as f64)
                .counter("events", CmpOp::Ge, 1.0)
                .build(),
        );
    }

    let mut names = std::collections::BTreeSet::new();
    for s in &out {
        assert!(
            names.insert(s.name.clone()),
            "duplicate scenario name {}",
            s.name
        );
    }
    out
}

/// The registry as `(file name, canonical text)` pairs.
pub fn files() -> Vec<(String, String)> {
    generate()
        .iter()
        .map(|s| (format!("{}.scn", s.name), crate::parse::print(s)))
        .collect()
}
