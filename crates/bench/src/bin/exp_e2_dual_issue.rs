//! Regenerates experiment E2 (dual-issue speedup over the kernel
//! suite); the table is documented on `patmos_bench::exp_e2_dual_issue`
//! in `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e2_dual_issue());
}
