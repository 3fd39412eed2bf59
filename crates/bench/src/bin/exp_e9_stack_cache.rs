//! Regenerates experiment E9 (stack-cache spilling across a call
//! ladder); the table is documented on
//! `patmos_bench::exp_e9_stack_cache` in `crates/bench/src/lib.rs`.
fn main() {
    print!("{}", patmos_bench::exp_e9_stack_cache());
}
