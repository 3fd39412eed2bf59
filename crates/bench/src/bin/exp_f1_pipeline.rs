//! Regenerates experiment F1 (the pipeline visible-delay contract of
//! Figure 1); the table is documented on
//! `patmos_bench::exp_f1_pipeline` in `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_f1_pipeline());
}
