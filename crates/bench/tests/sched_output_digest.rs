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

use std::fmt::Write as _;

use patmos::compiler::{compile_with_artifacts, CompileOptions};
use patmos::workloads;
use patmos_bench::trajectory::{Config, CONFIGS, O3S2};

const DIGEST_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/sched_output_digest.txt");
const REGENERATE: &str =
    "cargo test --release -p patmos-bench --test sched_output_digest -- --ignored regenerate";

/// Every configuration the digest covers, by name.
fn configurations() -> Vec<(String, CompileOptions)> {
    let name = |c: Config| format!("o{}s{}-{:?}", c.0, c.1, c.2).to_lowercase();
    let mut out: Vec<(String, CompileOptions)> =
        CONFIGS.iter().map(|&c| (name(c), c.options())).collect();
    out.push((
        format!("{}-single-issue", name(O3S2)),
        CompileOptions {
            dual_issue: false,
            ..O3S2.options()
        },
    ));
    out.push((
        format!("{}-single-path", name(O3S2)),
        CompileOptions {
            single_path: true,
            ..O3S2.options()
        },
    ));
    out
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One `kernel configuration digest` line per pair, in suite order.
fn digests() -> String {
    let mut out = String::new();
    for w in workloads::all() {
        for (config, options) in configurations() {
            // Single-path mode rejects some kernels; the error text is
            // pinned then.
            let text = match compile_with_artifacts(&w.source, &options) {
                Ok(a) => format!("{}\n--- sched report ---\n{:?}", a.asm, a.sched),
                Err(e) => format!("compile error: {e}"),
            };
            writeln!(out, "{} {config} {:016x}", w.name, fnv1a64(text.as_bytes()))
                .expect("string write");
        }
    }
    out
}

#[test]
fn scheduled_output_matches_pinned_digests() {
    let pinned = std::fs::read_to_string(DIGEST_FILE).expect("digest file is checked in");
    let fresh = digests();
    let (pinned_lines, fresh_lines): (Vec<&str>, Vec<&str>) =
        (pinned.lines().collect(), fresh.lines().collect());
    let mismatches: Vec<String> = fresh_lines
        .iter()
        .zip(&pinned_lines)
        .filter(|(f, p)| f != p)
        .map(|(f, p)| {
            let mut key = f.split(' ');
            let (kernel, config) = (key.next().unwrap_or("?"), key.next().unwrap_or("?"));
            format!("{kernel} at {config}: pinned `{p}`, now `{f}`")
        })
        .collect();
    assert!(
        mismatches.is_empty() && pinned_lines.len() == fresh_lines.len(),
        "scheduled output changed ({} of {} pairs; {} pinned lines, {} fresh):\n{}\n\
         if the change is intentional, regenerate with `{REGENERATE}`",
        mismatches.len(),
        fresh_lines.len(),
        pinned_lines.len(),
        fresh_lines.len(),
        mismatches.join("\n"),
    );
}

#[test]
#[ignore = "rewrites the checked-in digest file"]
fn regenerate() {
    std::fs::write(DIGEST_FILE, digests()).expect("digest file is writable");
}
