//! Regenerates experiment E18 (loop-aware register allocation vs
//! linear scan at `opt3/sched2`).
//!
//! With `--json`, re-emits `baselines/regalloc2_cycles.json` with
//! fresh measurements instead of the human-readable table; with
//! `--footprint-json`, emits the per-kernel spill/rename footprint
//! document the CI perf-trajectory job archives.
fn main() {
    let has = |flag: &str| std::env::args().any(|a| a == flag);
    if has("--footprint-json") && !has("--json") {
        print!("{}", patmos_bench::trajectory::regalloc2_footprint_json());
    } else {
        patmos_bench::trajectory::bin_main("regalloc2_cycles.json");
    }
}
