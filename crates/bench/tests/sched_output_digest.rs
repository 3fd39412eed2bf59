//! Pins the scheduler's output byte for byte.
//!
//! The trajectory files pin cycles, bounds and code size, but equal
//! cycles do not prove equal schedules. This test hashes (FNV-1a-64)
//! the emitted assembly plus the scheduler report's `Debug` text — its
//! modulo-scheduling remarks and per-block and per-loop lines — for
//! every kernel at every trajectory configuration, plus opt3/sched2
//! single-issue and opt3/sched2 single-path, and compares against
//! `sched_output_digest.txt`. Where a configuration rejects a kernel
//! (single-path mode refuses some), the error text is hashed instead.
//!
//! Regenerate the file only after an intentional change to the
//! emitted code or the report:
//!
//! ```text
//! cargo test --release -p patmos-bench --test sched_output_digest -- --ignored regenerate
//! ```

mod digest;

const DIGEST_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/sched_output_digest.txt");
const REGENERATE: &str =
    "cargo test --release -p patmos-bench --test sched_output_digest -- --ignored regenerate";

fn digests() -> String {
    digest::digests(|a| format!("{}\n--- sched report ---\n{:?}", a.asm, a.sched))
}

#[test]
fn scheduled_output_matches_pinned_digests() {
    digest::check(DIGEST_FILE, &digests(), "scheduled output", REGENERATE);
}

#[test]
#[ignore = "rewrites the checked-in digest file"]
fn regenerate() {
    std::fs::write(DIGEST_FILE, digests()).expect("digest file is writable");
}
