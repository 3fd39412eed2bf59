//! Regenerates experiment E19 (the pipeline-aware WCET bound
//! trajectory at `opt3/sched2`: IPET bounds with and without the
//! `.pipeloop` cost model, against measured cycles).
//!
//! With `--json`, re-emits `baselines/wcet_bounds.json` with fresh
//! measurements instead of the human-readable table.
fn main() {
    patmos_bench::trajectory::bin_main("wcet_bounds.json");
}
