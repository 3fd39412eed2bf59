//! Regenerates experiment E10 (VLIW bundle fill by the list scheduler);
//! the table is documented on `patmos_bench::exp_e10_scheduler` in
//! `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e10_scheduler());
}
