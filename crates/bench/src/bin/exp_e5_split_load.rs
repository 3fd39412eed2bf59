//! Regenerates experiment E5 (split-load latency hiding); the table is
//! documented on `patmos_bench::exp_e5_split_load` in
//! `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e5_split_load());
}
