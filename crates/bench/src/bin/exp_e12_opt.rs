//! Regenerates experiment E12 (mid-end optimizer vs straight lowering).
//!
//! With `--json`, re-emits `baselines/opt_cycles.json` with fresh
//! measurements instead of the human-readable table.
fn main() {
    patmos_bench::trajectory::bin_main("opt_cycles.json");
}
