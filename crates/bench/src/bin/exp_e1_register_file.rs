//! Regenerates experiment E1 (the double-clocked register-file
//! feasibility study); the table is documented on
//! `patmos_bench::exp_e1_register_file` in `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e1_register_file());
}
