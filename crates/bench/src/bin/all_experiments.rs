//! Regenerates every experiment table in one run (the README's
//! "Reproduce the paper's evaluation tables" command).
fn main() {
    print!("{}", patmos_bench::all_experiments());
}
