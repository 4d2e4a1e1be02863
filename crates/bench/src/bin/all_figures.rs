//! Regenerates every figure and the headline table.
use emu_bench::figures as f;
use emu_bench::output::{args_or_exit, run_campaign, FigureFn};

/// Every figure, in campaign order.
const FIGURES: [(&str, FigureFn); 10] = [
    ("fig04", f::fig04),
    ("fig05", f::fig05),
    ("fig06", f::fig06),
    ("fig07", f::fig07),
    ("fig08", f::fig08),
    ("fig09a", f::fig09a),
    ("fig09b", f::fig09b),
    ("fig10", f::fig10),
    ("fig11", f::fig11),
    ("headline", f::headline),
];

fn main() {
    let t0 = std::time::Instant::now();
    // One parse for the whole campaign: a usage error names the
    // campaign and exits before any figure runs.
    let args = args_or_exit("all_figures");
    let written = run_campaign(&args, &FIGURES);
    if runcache::enabled() {
        eprintln!("{}", emu_bench::cache::session_summary());
    }
    eprintln!("[all_figures] done in {:.1}s", t0.elapsed().as_secs_f64());
    // Every figure ran; a requested artifact or CSV that was not
    // written still fails the campaign.
    if !written {
        std::process::exit(1);
    }
}
