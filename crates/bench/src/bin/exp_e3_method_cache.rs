//! Regenerates experiment E3 (the method-cache working-set sweep); the
//! table is documented on `patmos_bench::exp_e3_method_cache` in
//! `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e3_method_cache());
}
