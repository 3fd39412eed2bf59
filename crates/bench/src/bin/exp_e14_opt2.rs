//! Regenerates experiment E14 (loop-aware mid-end vs scalar mid-end).
//!
//! With `--json`, re-emits `baselines/opt2_cycles.json` with fresh
//! measurements instead of the human-readable table.
fn main() {
    patmos_bench::trajectory::bin_main("opt2_cycles.json");
}
