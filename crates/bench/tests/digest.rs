//! Digest stability: the content hashes the result cache stores under
//! must never drift silently.
//!
//! Golden digests pin the hash of every machine preset paired with the
//! canonical STREAM and chase workload shapes. Every key starts with
//! `runcache::MODEL_FINGERPRINT`, a hash of the source that moves on
//! any edit, so the pins hash the rest of the key material under a
//! fixed test salt instead. If one of these assertions fails, an
//! output-affecting knob (or a `Debug` rendering feeding the key
//! material) changed; the fingerprint already orphans the old entries,
//! so check that the change is meant and re-pin the hex values here.

use emu_core::config::MachineConfig;
use emu_core::prelude::presets;
use membench::chase::{ChaseConfig, ShuffleMode};
use membench::stream::{EmuStreamConfig, StreamKernel};
use runcache::sha256::hex_digest;
use runcache::Key;

fn all_presets() -> [(&'static str, MachineConfig); 5] {
    [
        ("chick", presets::chick_prototype()),
        ("chick-sim", presets::chick_toolchain_sim()),
        ("full-speed", presets::chick_full_speed()),
        ("emu64", presets::emu64_full_speed()),
        ("chick-8node", presets::chick_8node_prototype()),
    ]
}

fn stream_workload() -> EmuStreamConfig {
    EmuStreamConfig {
        total_elems: 1 << 18,
        nthreads: 512,
        strategy: emu_core::spawn::SpawnStrategy::RecursiveRemote,
        kernel: StreamKernel::Add,
        single_nodelet: false,
        stack_touch_period: 4,
    }
}

fn chase_workload() -> ChaseConfig {
    ChaseConfig {
        elems_per_list: 4096,
        nlists: 512,
        block_elems: 64,
        mode: ShuffleMode::FullBlock,
        seed: desim::rng::DEFAULT_SEED,
    }
}

/// Stands in for the key's leading fingerprint record in the pinned
/// digests. It is the record the retired `emu-runcache-v1` version salt
/// wrote, so the pins are the ones taken before the fingerprint.
const TEST_SALT: &str = "version:15:emu-runcache-v1\n";

/// The digest a preset + workload pair resolves to, built exactly like
/// the caching layers build theirs (kind, then `Debug`-rendered parts),
/// hashed under [`TEST_SALT`] in place of the source fingerprint.
fn digest(kind: &str, cfg: &MachineConfig, workload: &impl std::fmt::Debug) -> String {
    let mut k = Key::new(kind);
    k.record_debug("machine", cfg);
    k.record_debug("workload", workload);
    let (fingerprint, rest) = k.material().split_once('\n').unwrap();
    assert_eq!(
        fingerprint,
        format!("model:64:{}", runcache::MODEL_FINGERPRINT)
    );
    hex_digest(format!("{TEST_SALT}{rest}").as_bytes())
}

#[test]
fn golden_digests_for_every_preset() {
    let stream = stream_workload();
    let chase = chase_workload();
    let golden = [
        (
            "chick",
            "87816ff46ce930d1adef52f2c851353befb76d08598b1972c999b79ba2cd4cf0",
            "9f83fabcf92bb38d3aca415855f2a92742efa6e54b26f490a7b16c4bf9cb45fe",
        ),
        (
            "chick-sim",
            "34f4972f395d3e30f3c27c29021812f77641359e7f04a3a8d125ab039291bbf8",
            "942bb23d921725f985d024dc9bc276041fbe67e378d1dcd16ce1db9e09e42291",
        ),
        (
            "full-speed",
            "db9f890aa94bcd2723215b853d818ab6a951c4dbe5471726b791bbdef3e4d6cc",
            "a680a0f30403168c28731e19ddbe92d9708b1c7f8fb0457c1e4455ab9bb630e4",
        ),
        (
            "emu64",
            "ae07cc77a6da4380616d0b6cd534b9ab44851398aa303c8d36db1b4280fc97c3",
            "bba67f4542e5fe73b99a3d265abb6fb14e6aa3a6e4e22cbeea10c9a9034f765e",
        ),
        (
            "chick-8node",
            "79484eba341ab1a0c54d077d7615b3c87e97dcc9086d027c6d3f0665e9f72340",
            "1f8da590e7a3377368bee3eb076caee68b253cdec28c8319588e3e092e7af355",
        ),
    ];
    for ((name, cfg), (gname, gstream, gchase)) in all_presets().iter().zip(golden) {
        assert_eq!(*name, gname, "preset table out of sync");
        assert_eq!(
            digest("stream", cfg, &stream),
            gstream,
            "preset {name} x stream digest drifted"
        );
        assert_eq!(
            digest("chase", cfg, &chase),
            gchase,
            "preset {name} x chase digest drifted"
        );
    }
}

/// Digests are process-independent: the same material hashes the same
/// in a fresh `Key`, and distinct presets never collide.
#[test]
fn digests_are_deterministic_and_collision_free() {
    let stream = stream_workload();
    let mut seen = std::collections::BTreeSet::new();
    for (name, cfg) in all_presets() {
        let a = digest("stream", &cfg, &stream);
        let b = digest("stream", &cfg, &stream);
        assert_eq!(a, b, "{name}: digest not deterministic");
        assert!(
            seen.insert(a),
            "{name}: digest collides with another preset"
        );
    }
}

/// Scenario machine-override lines are order-insensitive: the canonical
/// printer normalizes them, so the scenario cache key (which hashes the
/// printed form) is identical however the author ordered the overrides.
#[test]
fn reordered_scenario_overrides_hash_identically() {
    let a = "scenario order\n\nmachine chick\n  nodes = 2\n  gcs_per_nodelet = 1\n\n\
             workload stream\n  elems = 1024\n  threads = 8\n";
    let b = "scenario order\n\nmachine chick\n  gcs_per_nodelet = 1\n  nodes = 2\n\n\
             workload stream\n  threads = 8\n  elems = 1024\n";
    let sa = scenario::parse(a).unwrap();
    let sb = scenario::parse(b).unwrap();
    // The raw prints differ (override lines keep file order) but the
    // digest form — what the scenario cache hashes — is normalized.
    assert_eq!(
        scenario::run::digest_form(&sa),
        scenario::run::digest_form(&sb)
    );

    let key = |s: &scenario::Scenario| {
        let mut k = Key::new("scn-point");
        k.record("scenario", &scenario::run::digest_form(s));
        k.digest()
    };
    assert_eq!(key(&sa), key(&sb));

    // But a changed override *value* is a different digest.
    let c = a.replace("nodes = 2", "nodes = 4");
    let sc = scenario::parse(&c).unwrap();
    assert_ne!(key(&sa), key(&sc));
}

/// Flipping any output-affecting knob must land on a different digest —
/// a stale hit across a config change would silently serve wrong data.
#[test]
fn output_affecting_knob_flips_change_the_digest() {
    let stream = stream_workload();
    let base = presets::chick_prototype();
    let base_digest = digest("stream", &base, &stream);

    let mut slower = base.clone();
    slower.ncdram_bytes_per_sec /= 2;
    assert_ne!(digest("stream", &slower, &stream), base_digest);

    let mut bigger = stream_workload();
    bigger.total_elems *= 2;
    assert_ne!(digest("stream", &base, &bigger), base_digest);

    let mut other_kernel = stream_workload();
    other_kernel.kernel = StreamKernel::Triad;
    assert_ne!(digest("stream", &base, &other_kernel), base_digest);
}
