//! Runs the extension experiments (streaming graphs, MTTKRP, shuffle
//! modes, full STREAM suite, node scaling).
use emu_bench::extensions as x;

fn main() {
    emu_bench::output::emit_tables(&[
        ("ext_graph", x::ext_graph),
        ("ext_mttkrp", x::ext_mttkrp),
        ("ext_shuffle_modes", x::ext_shuffle_modes),
        ("ext_stream_suite", x::ext_stream_suite),
        ("ext_multinode", x::ext_multinode),
    ]);
}
