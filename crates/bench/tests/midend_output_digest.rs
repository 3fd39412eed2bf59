//! Pins the mid-end's and the register allocator's output byte for
//! byte.
//!
//! `sched_output_digest` pins what leaves the scheduler; a mid-end or
//! allocator change can still alter the intermediate code or the
//! reports without moving the final assembly. This test hashes
//! (FNV-1a-64) the virtual LIR handed to the allocator, the `Debug`
//! text of the mid-end's `OptReport` — every pass's traced before/after
//! dump, the remarks, rounds, unrolls and inlines — and the `Debug`
//! text of the allocator's `AllocReport`, for the same kernels and
//! configurations as `sched_output_digest`, and compares against
//! `midend_output_digest.txt`. Where a configuration rejects a kernel,
//! the error text is hashed instead.
//!
//! Regenerate the file only after an intentional change to the
//! mid-end's or the allocator's output:
//!
//! ```text
//! cargo test --release -p patmos-bench --test midend_output_digest -- --ignored regenerate
//! ```

mod digest;

const DIGEST_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/midend_output_digest.txt"
);
const REGENERATE: &str =
    "cargo test --release -p patmos-bench --test midend_output_digest -- --ignored regenerate";

fn digests() -> String {
    digest::digests(|a| {
        format!(
            "{}\n--- opt report ---\n{:?}\n--- allocation ---\n{:?}",
            a.vlir, a.opt, a.allocation
        )
    })
}

#[test]
fn midend_and_allocator_output_matches_pinned_digests() {
    digest::check(
        DIGEST_FILE,
        &digests(),
        "mid-end or allocator output",
        REGENERATE,
    );
}

#[test]
#[ignore = "rewrites the checked-in digest file"]
fn regenerate() {
    std::fs::write(DIGEST_FILE, digests()).expect("digest file is writable");
}
