//! Regenerates experiment E7 (WCET bound tightness, Patmos vs the
//! baseline); the table is documented on
//! `patmos_bench::exp_e7_wcet_bounds` in `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e7_wcet_bounds());
}
