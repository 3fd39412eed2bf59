//! What the output-digest tests share: the configuration list, the
//! FNV-1a-64 hash, the per-(kernel, configuration) digest lines and the
//! comparison against a checked-in digest file.

use std::fmt::Write as _;

use patmos::compiler::{compile_with_artifacts, CompileArtifacts, CompileOptions};
use patmos::workloads;
use patmos_bench::trajectory::{Config, CONFIGS, O3S2};

/// Every configuration the digests cover, by name: the trajectory
/// configurations plus opt3/sched2 single-issue and single-path.
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
/// `render` turns a compilation into the text that is hashed; where a
/// configuration rejects a kernel (single-path mode refuses some), the
/// error text is hashed instead.
pub fn digests(render: impl Fn(&CompileArtifacts) -> String) -> String {
    let mut out = String::new();
    for w in workloads::all() {
        for (config, options) in configurations() {
            let text = match compile_with_artifacts(&w.source, &options) {
                Ok(a) => render(&a),
                Err(e) => format!("compile error: {e}"),
            };
            writeln!(out, "{} {config} {:016x}", w.name, fnv1a64(text.as_bytes()))
                .expect("string write");
        }
    }
    out
}

/// Compares `fresh` against the digest file at `path`; a failure names
/// every changed kernel and configuration and the `regenerate` command.
pub fn check(path: &str, fresh: &str, what: &str, regenerate: &str) {
    let pinned = std::fs::read_to_string(path).expect("digest file is checked in");
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
        "{what} changed ({} of {} pairs; {} pinned lines, {} fresh):\n{}\n\
         if the change is intentional, regenerate with `{regenerate}`",
        mismatches.len(),
        fresh_lines.len(),
        pinned_lines.len(),
        fresh_lines.len(),
        mismatches.join("\n"),
    );
}
