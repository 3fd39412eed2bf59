//! Regenerates experiment E8 (CMP scaling under TDMA arbitration); the
//! table is documented on `patmos_bench::exp_e8_cmp_tdma` in
//! `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e8_cmp_tdma());
}
