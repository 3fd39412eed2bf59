//! Regenerates experiment E4 (split data caches vs a unified cache);
//! the table is documented on `patmos_bench::exp_e4_split_cache` in
//! `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e4_split_cache());
}
