//! E17 and the host-throughput artifacts: wall-clock speed of the
//! simulator's predecoded fast engine against the reference
//! interpreter, per kernel at the full `opt3/sched2` pipeline.
//!
//! Unlike every other experiment here the measured quantity is *host*
//! time, so the JSON document is a CI artifact for trending, not a
//! pinned baseline — guest cycles stay bit-identical between the two
//! engines and are asserted to be so on every measurement.

use std::fmt::Write as _;
use std::time::Instant;

use patmos::compiler::{compile, CompileOptions};
use patmos::sim::{HostStats, SimConfig, Simulator, Stats};
use patmos::workloads;

use crate::geomean_speedup;

/// One kernel's host-side measurement: best-of-3 wall time under the
/// reference interpreter (`fast_path = false`) and under the default
/// fast engine, plus the fast engine's coverage counters.
pub struct HostThroughputRow {
    /// The kernel name.
    pub name: String,
    /// Guest cycles (identical under both engines, by assertion).
    pub guest_cycles: u64,
    /// Best-of-3 wall time of the reference interpreter, nanoseconds.
    pub slow_ns: u64,
    /// Best-of-3 wall time of the fast engine, nanoseconds.
    pub fast_ns: u64,
    /// The fast run's host counters.
    pub host: HostStats,
}

impl HostThroughputRow {
    /// Host speedup of the fast engine over the reference interpreter.
    pub fn speedup(&self) -> f64 {
        self.slow_ns as f64 / self.fast_ns as f64
    }

    /// Reference-interpreter throughput in simulated cycles per host
    /// second.
    pub fn slow_cycles_per_sec(&self) -> f64 {
        self.guest_cycles as f64 * 1e9 / self.slow_ns as f64
    }

    /// Fast-engine throughput in simulated cycles per host second.
    pub fn fast_cycles_per_sec(&self) -> f64 {
        self.guest_cycles as f64 * 1e9 / self.fast_ns as f64
    }
}

/// Best-of-`runs` wall time of a fresh simulator on `image`, with the
/// last run's stats and host counters (both are deterministic across
/// runs; only the wall time jitters).
fn time_runs(
    image: &patmos::asm::ObjectImage,
    config: &SimConfig,
    runs: u32,
) -> (u64, Stats, HostStats) {
    let mut best = u64::MAX;
    let mut stats = Stats::default();
    let mut host = HostStats::default();
    for _ in 0..runs {
        let mut sim = Simulator::new(image, config.clone());
        let started = Instant::now();
        sim.run().expect("experiment kernel runs");
        let ns = started.elapsed().as_nanos() as u64;
        best = best.min(ns.max(1));
        stats = sim.stats();
        host = sim.host_stats();
    }
    (best, stats, host)
}

/// Measures every suite kernel at `opt3/sched2` under both engines and
/// asserts their guest-visible results are bit-identical.
pub fn measure_host_throughput() -> Vec<HostThroughputRow> {
    let options = CompileOptions {
        opt_level: 3,
        sched_level: 2,
        ..CompileOptions::default()
    };
    let slow_config = SimConfig {
        fast_path: false,
        ..SimConfig::default()
    };
    workloads::all()
        .iter()
        .map(|w| {
            let image = compile(&w.source, &options).expect("experiment kernel compiles");
            let (slow_ns, slow_stats, slow_host) = time_runs(&image, &slow_config, 3);
            let (fast_ns, fast_stats, host) = time_runs(&image, &SimConfig::default(), 3);
            assert_eq!(
                slow_stats, fast_stats,
                "{}: the fast engine must be bit-identical to the reference",
                w.name
            );
            assert_eq!(
                slow_host,
                HostStats::default(),
                "{}: the reference interpreter must not touch the fast engine",
                w.name
            );
            HostThroughputRow {
                name: w.name.to_string(),
                guest_cycles: fast_stats.cycles,
                slow_ns,
                fast_ns,
                host,
            }
        })
        .collect()
}

/// E17 — host throughput: simulated cycles per host second under the
/// reference interpreter vs the predecoded fast engine, with the share
/// of guest cycles the fast engine retired from predecoded bundles.
pub fn exp_e17_host_throughput() -> String {
    let rows = measure_host_throughput();
    let mut out = String::new();
    writeln!(
        out,
        "E17: host throughput — predecoded fast engine vs reference interpreter (opt3/sched2)"
    )
    .ok();
    writeln!(
        out,
        "{:<12} {:>10} {:>11} {:>11} {:>9} {:>7}",
        "kernel", "guest cyc", "slow Mc/s", "fast Mc/s", "speedup", "fast%"
    )
    .ok();
    let mut pairs = Vec::new();
    for r in &rows {
        pairs.push((r.slow_ns, r.fast_ns));
        writeln!(
            out,
            "{:<12} {:>10} {:>11.1} {:>11.1} {:>8.2}x {:>6.1}%",
            r.name,
            r.guest_cycles,
            r.slow_cycles_per_sec() / 1e6,
            r.fast_cycles_per_sec() / 1e6,
            r.speedup(),
            r.host.fast_coverage(r.guest_cycles) * 100.0,
        )
        .ok();
    }
    writeln!(
        out,
        "suite geomean host speedup: {:.2}x (wall-clock; guest cycles bit-identical)",
        geomean_speedup(&pairs)
    )
    .ok();
    out
}

/// The E17 measurements as JSON — the artifact the perf-trajectory CI
/// job uploads. Wall-clock numbers vary with the host, so this is a
/// trend document, not a pinned baseline like the cycle-count files.
pub fn host_throughput_json() -> String {
    let rows = measure_host_throughput();
    let pairs: Vec<(u64, u64)> = rows.iter().map(|r| (r.slow_ns, r.fast_ns)).collect();
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"patmos-bench/host-throughput/v2\",\n");
    out.push_str(
        "  \"description\": \"Per-kernel host wall time (best of 3) of the reference interpreter vs the predecoded fast engine at opt_level 3 / sched_level 2, with the share of guest cycles the fast engine retired from predecoded bundles. Host-dependent: uploaded as a CI trend artifact, never pinned. Regenerate with: cargo run --release -p patmos-bench --bin exp_e17_host_throughput -- --json\",\n",
    );
    writeln!(
        out,
        "  \"geomean_speedup\": {:.3},",
        geomean_speedup(&pairs)
    )
    .ok();
    out.push_str("  \"kernels\": {\n");
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\n      \"guest_cycles\": {},\n      \"slow_ns\": {},\n      \"fast_ns\": {},\n      \"speedup\": {:.3},\n      \"fast_coverage\": {:.4}\n    }}",
                r.name,
                r.guest_cycles,
                r.slow_ns,
                r.fast_ns,
                r.speedup(),
                r.host.fast_coverage(r.guest_cycles),
            )
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CI host-throughput floor. Wall-clock timing is meaningless
    /// in unoptimised builds, so the floor only gates release runs (the
    /// perf-trajectory job); a debug `cargo test` skips it.
    ///
    /// The floor is deliberately below the measured ratio: the fast
    /// engine runs a 1.57–1.73x geomean over the reference interpreter
    /// on this suite (2-vCPU x86-64 host). Both engines share
    /// `exec_slot` and cross-crate inlining, so the in-binary ratio
    /// isolates what the predecoded step saves per bundle: recomputing
    /// each slot's operand registers and the reference step's
    /// per-bundle vector. Shared CI runners jitter hard, so the gate
    /// only catches a fast engine that has stopped paying for itself,
    /// not ordinary noise.
    #[test]
    fn e17_fast_engine_beats_reference_geomean_floor() {
        if cfg!(debug_assertions) {
            eprintln!("skipping the host-throughput floor in a debug build");
            return;
        }
        let rows = measure_host_throughput();
        let pairs: Vec<(u64, u64)> = rows.iter().map(|r| (r.slow_ns, r.fast_ns)).collect();
        let geomean = geomean_speedup(&pairs);
        assert!(
            geomean >= 1.30,
            "fast-engine geomean host speedup {geomean:.2}x fell below the 1.30x floor \
             (measurements sit at 1.57-1.73x)"
        );
    }

    /// The coverage counters are deterministic (they count guest
    /// cycles, not host time), so they are pinned in both build modes:
    /// nearly all of every kernel's guest cycles must come out of
    /// predecoded bundles.
    #[test]
    fn e17_fast_tiers_carry_the_suite() {
        for r in measure_host_throughput() {
            let fast = r.host.fast_coverage(r.guest_cycles);
            assert!(
                fast >= 0.95,
                "{}: only {:.1}% of guest cycles came from predecoded bundles",
                r.name,
                fast * 100.0
            );
        }
    }
}
