//! Regenerates experiment E6 (if-conversion and the single-path
//! paradigm); the table is documented on
//! `patmos_bench::exp_e6_single_path` in `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e6_single_path());
}
