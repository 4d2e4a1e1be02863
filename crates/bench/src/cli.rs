//! Argument parsing and dispatch for the `simctl` binary — a driver
//! that runs any benchmark on any machine preset with overridable
//! parameters, so a downstream user can explore configurations without
//! writing code.
//!
//! Grammar: `simctl <command> [--key value]...`. Parsing is hand-rolled
//! (the workspace deliberately has no CLI dependency) and fully unit
//! tested; the heavy lifting lives in the benchmark crates.

use std::collections::BTreeMap;

/// A parsed command line: a command word plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs, keyed without the dashes.
    pub options: BTreeMap<String, String>,
}

/// Parse `args` (excluding the program name).
///
/// Errors are human-readable strings meant for direct printing.
pub fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut it = args.iter();
    let command = it
        .next()
        .ok_or_else(|| "missing command; try `simctl help`".to_string())?
        .clone();
    if command.starts_with("--") {
        return Err(format!("expected a command before options, got {command}"));
    }
    let mut options = BTreeMap::new();
    while let Some(key) = it.next() {
        let Some(key) = key.strip_prefix("--") else {
            return Err(format!("expected --option, got {key}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?
            .clone();
        if options.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(Parsed { command, options })
}

impl Parsed {
    /// Fetch an option parsed as `T`, or `default` if absent.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Fetch a string option with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Reject options outside `allowed` (typo protection).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), String> {
        for k in self.options.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown option --{k}; allowed: {}",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ));
            }
        }
        Ok(())
    }
}

/// Resolve a chase shuffle mode by name. Unlike the `.scn` spelling
/// it also accepts the short aliases `intra`, `block`, and `full`.
pub fn mode_by_name(name: &str) -> Result<membench::chase::ShuffleMode, String> {
    use membench::chase::ShuffleMode::*;
    match name {
        "ordered" => Ok(Ordered),
        "intra" | "intra-block" => Ok(IntraBlock),
        "block" => Ok(BlockShuffle),
        "full" | "full-block" => Ok(FullBlock),
        other => Err(format!(
            "unknown mode {other:?}; one of: ordered, intra, block, full"
        )),
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
simctl — run any benchmark of the Emu Chick reproduction

USAGE: simctl <command> [--option value]...

COMMANDS
  stream    STREAM kernels        --preset chick --threads 512 --elems 262144
                                  --strategy recursive-remote --kernel add
                                  --single-nodelet false
  chase     pointer chasing       --platform emu|xeon --threads 512 --block 64
                                  --elems 4096 --mode full
  spmv      CSR SpMV              --platform emu|xeon --n 100 --layout 2d
                                  --grain 16 --strategy mkl (xeon)
  pingpong  migration microbench  --preset chick --threads 64 --round-trips 2000
  gups      random atomics        --threads 256 --updates 4096 --table 4194304
  bfs       streaming-graph BFS   --scale 11 --edges 16384 --mode smart
  mttkrp    sparse-tensor kernel  --rank 8 --nnz 16384 --layout blocked
  trace     run a traced workload --bench stream|chase --block 1 --events 65536
            and export telemetry  --bucket-us 20 --trace-out F --jsonl-out F
                                  --report-json F
  fuzz      conformance fuzzing   --cases 500 --seed N --corpus tests/corpus
            (lockstep sequential-vs-sharded scheduler + run audit;
            a failure shrinks to a minimal repro written to the
            corpus as a .scn scenario)
  scenario  conformance suite     run <path>... [--jobs N] [--cache]
            (.scn files)          [--report-json F]
                                  check <path>... | gen <dir>
            (declarative scenarios: machine + workload + faults +
            sweep + expect; `run` executes every point with checksum,
            audit, oracle, monotonicity, and byte-identity checks;
            `gen` regenerates the committed scenarios/ registry;
            `--cache` serves unchanged points from the result cache)
  cache     result-cache tools    stats | gc [--max-mb N]
            (.emu-cache store)    verify [--sample N]
            (content-addressed run results keyed by config + workload
            digests; EMU_CACHE=1 arms caching, EMU_CACHE_DIR moves the
            store, gc prunes oldest-first to EMU_CACHE_MAX_MB; verify
            re-simulates stored recipes and fails on any byte drift)
  pdes-speedup  sharded-scheduler --preset emu64 --shards 4 --threads 512
            microbenchmark        --elems 65536 --gate false --phases false
            (sequential vs N-shard events/sec on STREAM + pointer
            chase; writes pdes_speedup.json under the results dir;
            --gate true exits 1 if the sharded run is slower;
            --phases true prints the drain/barrier/exchange/merge
            wall-clock split of the sharded scheduler)
  presets   list machine presets
  serve     resident simulation daemon: warm engine pool behind a
            TCP/JSONL protocol (EMU_SIMD_* env knobs; see
            EXPERIMENTS.md \"Simulation as a service\")
  client    submit runs/sweeps to a daemon   --addr H:P --threads A,B,C
            --elems N --requests N --health --shutdown --out F
            (retries busy rejections with seeded jittered backoff)
  simd-once execute one request line from stdin on a cold engine
  simd-bench  warm-pool vs cold-process service benchmark; writes
            BENCH_simd.json   --requests N --workers N --gate [MIN]
  top       live dashboard over a daemon's {\"op\":\"metrics\"} snapshots
            --addr H:P --interval MS --once --count N
  help      this text

GLOBAL OPTIONS
  --jobs N  worker threads for parameter sweeps, N >= 1 (also:
            EMU_JOBS; the figure binaries and all_figures take
            --jobs/-j N too). Results are identical at any job count.
  --sim-threads N|auto
            shards the event scheduler of every simulated run across N
            >= 1 worker threads (also: EMU_SIM_THREADS; the figure
            binaries take it too). `auto` splits host cores across
            --jobs. Results are byte-identical at any value.

Every command prints bandwidth/throughput plus the migration counters
relevant to the Emu execution model. `trace` additionally writes a
Chrome trace_event JSON (load in Perfetto / chrome://tracing), a JSONL
event log, and a machine-readable run report under the results dir.";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_basic() {
        let p = parse(&argv("stream --threads 64 --preset chick")).unwrap();
        assert_eq!(p.command, "stream");
        assert_eq!(p.get("threads", 0usize).unwrap(), 64);
        assert_eq!(p.get_str("preset", "x"), "chick");
        assert_eq!(p.get("elems", 7u64).unwrap(), 7);
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("--threads 4")).is_err());
        assert!(parse(&argv("stream --threads")).is_err());
        assert!(parse(&argv("stream threads 4")).is_err());
        assert!(parse(&argv("stream --t 1 --t 2")).is_err());
    }

    #[test]
    fn typed_get_errors() {
        let p = parse(&argv("x --threads lots")).unwrap();
        assert!(p.get("threads", 0usize).is_err());
    }

    #[test]
    fn check_known_catches_typos() {
        let p = parse(&argv("stream --thread 4")).unwrap();
        assert!(p.check_known(&["threads"]).is_err());
        let p = parse(&argv("stream --threads 4")).unwrap();
        assert!(p.check_known(&["threads"]).is_ok());
    }

    #[test]
    fn resolvers() {
        assert!(mode_by_name("full").is_ok());
        assert!(mode_by_name("zigzag").is_err());
    }
}
