//! Runs every ablation study.
use emu_bench::ablations as a;

fn main() {
    emu_bench::output::emit_tables(&[
        ("ablation_grain", a::ablation_grain),
        ("ablation_migration_rate", a::ablation_migration_rate),
        ("ablation_spawn_ramp", a::ablation_spawn_ramp),
        ("ablation_stack_touch", a::ablation_stack_touch),
        ("ablation_cpu_features", a::ablation_cpu_features),
        ("ablation_full_speed_path", a::ablation_full_speed_path),
        ("gups_compare", a::gups_compare),
    ]);
}
