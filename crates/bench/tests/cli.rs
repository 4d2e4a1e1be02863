//! Command-line handling of the figure binaries and `simctl`, driven
//! as processes.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn all_figures_reports_a_bad_argument_once_under_its_own_name() {
    let dir = std::env::temp_dir().join(format!("emu-bench-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .arg("--quick")
        .env("EMU_QUICK", "1")
        .env("EMU_RESULTS_DIR", &dir)
        .output()
        .expect("all_figures starts");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "[all_figures] unknown argument \"--quick\"\n"
    );
    assert!(out.stdout.is_empty(), "a figure ran before the usage error");
    assert!(!dir.exists(), "a figure wrote its CSV");
}

#[test]
fn a_figure_whose_requested_report_cannot_be_written_exits_1() {
    let dir = std::env::temp_dir().join(format!("emu-bench-fig-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("file"), "").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig04"))
        .arg("--report-json")
        .arg(dir.join("file/r.json"))
        .env("EMU_QUICK", "1")
        .env("EMU_RESULTS_DIR", &dir)
        .output()
        .expect("fig04 starts");
    let csv_written = dir.join("fig04.csv").is_file();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[report-json] write failed"), "{stderr}");
    assert!(csv_written, "the table's CSV must still be written");

    // A CSV that cannot be written (its directory is under a file)
    // fails the run the same way, after the table is printed.
    let out = Command::new(env!("CARGO_BIN_EXE_fig04"))
        .env("EMU_QUICK", "1")
        .env("EMU_RESULTS_DIR", dir.join("file/sub"))
        .output()
        .expect("fig04 starts");
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[csv] write failed"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("## Fig 4:"), "{stdout}");
}

const SIMCTL: &str = env!("CARGO_BIN_EXE_simctl");

/// Run `simctl` to completion: its exit code and its stderr.
fn simctl(cmd: &mut Command) -> (Option<i32>, String) {
    let out = cmd.stdin(Stdio::null()).output().expect("simctl starts");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn simctl_prints_its_usage_for_usage_errors_only() {
    let (code, err) = simctl(Command::new(SIMCTL).args(["chase", "--blocks", "64"]));
    assert_eq!(code, Some(2), "{err}");
    assert!(err.starts_with("error: unknown option --blocks"), "{err}");
    assert!(err.contains("USAGE: simctl"), "{err}");

    // `mttkrp` always builds a 256x64x64 tensor, so `--dims` is no
    // option of it.
    let (code, err) = simctl(Command::new(SIMCTL).args(["mttkrp", "--dims", "8,8,8"]));
    assert_eq!(code, Some(2), "{err}");
    assert!(err.starts_with("error: unknown option --dims"), "{err}");

    // A trace that cannot be written (its directory is a file) is a
    // failed run: one `error:` line and exit 1.
    let dir = std::env::temp_dir().join(format!("emu-bench-simctl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("file"), "").unwrap();
    let (code, err) = simctl(
        Command::new(SIMCTL)
            .args(["trace", "--elems", "1024", "--threads", "16", "--trace-out"])
            .arg(dir.join("file/t.json"))
            .env("EMU_RESULTS_DIR", &dir),
    );
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(code, Some(1), "{err}");
    assert!(err.starts_with("error: [trace-out] write failed"), "{err}");
    assert_eq!(err.lines().count(), 1, "{err}");
}

#[test]
fn serve_and_simd_once_reject_stray_arguments() {
    // Were `--help` ignored, the daemon would bind a free port and run
    // until killed.
    let mut serve = Command::new(SIMCTL)
        .args(["serve", "--help"])
        .env("EMU_SIMD_ADDR", "127.0.0.1:0")
        .env_remove("EMU_SIMD_METRICS_ADDR")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("simctl starts");
    let give_up = Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = serve.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > give_up {
            serve.kill().unwrap();
            serve.wait().unwrap();
            panic!("`simctl serve --help` started a daemon");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));

    let (code, err) = simctl(Command::new(SIMCTL).args(["simd-once", "--help"]));
    assert_eq!(code, Some(2), "{err}");
    let usage = "simd simd-once: unknown argument \"--help\"\nsimd subcommands:";
    assert!(err.starts_with(usage), "{err}");
}
