//! Regenerates experiment E11 (register allocation before/after).
//!
//! With `--json`, re-emits `baselines/regalloc_cycles.json` with fresh
//! measurements instead of the human-readable table.
fn main() {
    patmos_bench::trajectory::bin_main("regalloc_cycles.json");
}
