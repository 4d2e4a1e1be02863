//! Where does threadlet time go? The paper's Section III-D asks for
//! metrics that expose "other system overheads, such as thread migration
//! and queuing delays" — this binary prints exactly that: the fraction
//! of total threadlet wall-time spent computing, waiting on local
//! memory, migrating, and posting stores, for each benchmark and
//! configuration.
fn main() {
    emu_bench::output::emit_tables(&[("breakdown", emu_bench::extensions::time_breakdown)]);
}
