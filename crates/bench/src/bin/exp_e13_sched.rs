//! Regenerates experiment E13 (DAG scheduler vs run scheduler).
//!
//! With `--json`, re-emits `baselines/sched_cycles.json` with fresh
//! measurements instead of the human-readable table.
fn main() {
    patmos_bench::trajectory::bin_main("sched_cycles.json");
}
