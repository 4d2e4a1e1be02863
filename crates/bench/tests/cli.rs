//! Command-line handling of the figure binaries, driven as processes.

use std::process::Command;

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
