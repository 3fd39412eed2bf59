//! Regenerates experiment E15 (software pipelining + partial
//! unrolling vs the PR 4 pipeline).
//!
//! With `--json`, re-emits `baselines/opt3_cycles.json` with fresh
//! measurements instead of the human-readable table.
fn main() {
    patmos_bench::trajectory::bin_main("opt3_cycles.json");
}
