//! Randomized (seeded, deterministic) tests of the benchmark workload
//! generators and the functional results of the benchmark kernels.
//! Each test sweeps a fixed set of seeds so failures are reproducible
//! without any external property-testing framework.

use emu_core::prelude::*;
use membench::chase::{run_chase_emu, traversal_order, ChaseConfig, ShuffleMode};
use membench::spmv_emu::{run_spmv_emu, x_vector, EmuLayout, EmuSpmvConfig};
use membench::stream::{run_stream_emu, stream_checksum, EmuStreamConfig, StreamKernel};
use std::sync::Arc;
use test_support::cases;

const CASES: u64 = 48;

/// Traversal orders are permutations that visit whole blocks, for all
/// modes and any geometry.
#[test]
fn traversal_order_permutation() {
    cases(CASES, 0x7AE5, |_case, rng| {
        let blocks = rng.gen_range(1..32usize);
        let block = rng.gen_range(1..64usize);
        let mode = ShuffleMode::ALL[rng.gen_range(0..ShuffleMode::ALL.len())];
        let seed = rng.next_u64();
        let n = blocks * block;
        let o = traversal_order(n, block, mode, seed);
        let mut sorted = o.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        // Block atomicity: each consecutive chunk is one block.
        for chunk in o.chunks(block) {
            let b = chunk[0] as usize / block;
            assert!(chunk.iter().all(|&e| e as usize / block == b));
        }
    });
}

/// The chase checksum is correct for arbitrary configurations.
#[test]
fn chase_checksum_always_right() {
    cases(CASES, 0xC4A5E, |_case, rng| {
        let blocks = rng.gen_range(1..8usize);
        let block = rng.gen_range(1..32usize);
        let cc = ChaseConfig {
            elems_per_list: blocks * block,
            nlists: rng.gen_range(1..10usize),
            block_elems: block,
            mode: ShuffleMode::ALL[rng.gen_range(0..ShuffleMode::ALL.len())],
            seed: rng.next_u64(),
        };
        let r = run_chase_emu(&presets::chick_prototype(), &cc).unwrap();
        assert_eq!(r.checksum, cc.expected_checksum());
    });
}

/// STREAM checksums hold for every kernel x strategy x thread count.
#[test]
fn stream_checksum_always_right() {
    cases(CASES, 0x57AEA, |_case, rng| {
        let kernel = StreamKernel::ALL[rng.gen_range(0..4usize)];
        let n = 1u64 << rng.gen_range(6..11u32);
        let threads = rng.gen_range(1..70usize);
        let strategy = SpawnStrategy::ALL[rng.gen_range(0..SpawnStrategy::ALL.len())];
        let r = run_stream_emu(
            &presets::chick_prototype(),
            &EmuStreamConfig {
                total_elems: n,
                nthreads: threads,
                strategy,
                kernel,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.checksum, stream_checksum(n, kernel));
    });
}

/// SpMV on random sparse matrices is exact in every layout, for any
/// grain size.
#[test]
fn spmv_exact_on_random_matrices() {
    cases(CASES, 0x59F4, |_case, rng| {
        let n = rng.gen_range(10..60u32);
        let nnz_per_row = rng.gen_range(1..6u32);
        let layout = EmuLayout::ALL[rng.gen_range(0..EmuLayout::ALL.len())];
        let grain = rng.gen_range(1..64usize);
        let seed = rng.next_u64();
        let m = Arc::new(spmat::gen::random_uniform(n, n, nnz_per_row, seed));
        let reference = m.spmv(&x_vector(m.ncols()));
        let r = run_spmv_emu(
            &presets::chick_prototype(),
            Arc::clone(&m),
            &EmuSpmvConfig {
                layout,
                grain_nnz: grain,
            },
        )
        .unwrap();
        for (i, (a, b)) in reference.iter().zip(&r.y).enumerate() {
            assert!((a - b).abs() < 1e-9, "row {i}: {a} vs {b}");
        }
    });
}

/// Migration count bounds for the chase: at most one migration per
/// element.
#[test]
fn chase_migrations_bounded() {
    cases(CASES, 0xB0DD, |_case, rng| {
        let blocks = rng.gen_range(2..10usize);
        let block = rng.gen_range(1..16usize);
        let cc = ChaseConfig {
            elems_per_list: blocks * block,
            nlists: rng.gen_range(1..6usize),
            block_elems: block,
            mode: ShuffleMode::FullBlock,
            seed: rng.next_u64(),
        };
        let r = run_chase_emu(&presets::chick_prototype(), &cc).unwrap();
        assert!(
            r.migrations <= cc.total_elems(),
            "more migrations than elements"
        );
    });
}
