//! Calibration gate: checks every paper anchor band; exits nonzero on
//! any FAIL, or when the table's CSV cannot be written.
fn main() {
    let checks = match emu_bench::validate::run_all() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("validation aborted: simulation failed: {e}");
            std::process::exit(2);
        }
    };
    let (table, ok) = emu_bench::validate::render(&checks);
    let written = table.emit("validate");
    if !ok {
        eprintln!("validation FAILED");
        std::process::exit(1);
    }
    println!("all {} checks PASS", checks.len());
    if !written {
        std::process::exit(1);
    }
}
