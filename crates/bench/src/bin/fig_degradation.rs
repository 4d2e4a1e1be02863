//! Degradation sweep: bandwidth vs dead/slow nodelet fractions and
//! migration NACK rates, with per-point fault counters and statuses.
fn main() {
    if !emu_bench::degradation::fig_degradation().emit("fig_degradation") {
        std::process::exit(1);
    }
}
