//! End-to-end and per-layer benchmark of the Patmos toolchain.
//!
//! One process, one thread, a closed loop: a single client starts each
//! job when the previous one has finished. Run it from the repository
//! root:
//!
//! ```text
//! bash perfbench/run.sh --workload suite-o3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! It prints every metric by name with its unit, one row per kernel on
//! the suite workloads, and as its last line one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs traced and
//! untraced passes alternately, reports the per-layer metrics and the
//! tracing overhead, and writes the spans to
//! `.bench_out/<workload>-seed<seed>.json`. `perfbench/README.md` maps
//! each layer metric to the end-to-end metric and workload it moves.

mod bench;
mod calib;
mod jobs;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::{Bench, KernelTimes, Kind, PassOut, Reference, SetupOut};
use stats::{geomean, median, tail};
use trace::Tracer;

/// Set-ups per run, spread evenly over the measured seconds.
const SETUP_REPS: usize = 10;

/// End-to-end metrics, reported by `--trace 0`: (name, unit).
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("pass_ms_p50", "ms"),
    ("compile_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("guest_cycles", "cycles"),
    ("wcet_bound_cycles", "cycles"),
    ("bound_ratio", "ratio"),
    ("code_bytes", "bytes"),
];

/// Per-layer metrics, reported by `--trace 1`: (name, unit).
const PER_LAYER: [(&str, &str); 43] = [
    ("compiler.ms", "ms"),
    ("compiler.parse_ms", "ms"),
    ("compiler.codegen_emit_ms", "ms"),
    ("opt.ms", "ms"),
    ("opt.rounds", "count"),
    ("opt.insts_in", "count"),
    ("opt.insts_out", "count"),
    ("opt.unrolls", "count"),
    ("opt.inlines", "count"),
    ("regalloc.ms", "ms"),
    ("regalloc.spills", "count"),
    ("regalloc.frame_words", "count"),
    ("sched.ms", "ms"),
    ("sched.nopipe_ms", "ms"),
    ("sched.pipeline_extra_ms", "ms"),
    ("sched.compile_share", "ratio"),
    ("sched.pipelined", "count"),
    ("sched.pipeline_refused", "count"),
    ("sched.pipeline_yield", "ratio"),
    ("sched.bundles", "count"),
    ("sched.dual_bundles", "count"),
    ("sched.hoisted", "count"),
    ("asm.ms", "ms"),
    ("asm.bytes_in", "bytes"),
    ("wcet.ms", "ms"),
    ("wcet.cfg_ms", "ms"),
    ("wcet.blocks", "count"),
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.drop_ms", "ms"),
    ("sim.mcycles_per_s", "Mcycles/s"),
    ("sim.fast_coverage", "ratio"),
    ("mem.mcache_misses", "count"),
    ("mem.dcache_misses", "count"),
    ("mem.stall_cycles", "cycles"),
    ("mem.stack_ops", "count"),
    ("faults.masked", "count"),
    ("faults.sdc", "count"),
    ("faults.detected", "count"),
    ("faults.hang", "count"),
    ("faults.sdc_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.passes", "count"),
];

/// Per-layer metrics derived from span times rather than counted.
const TIMED: [&str; 16] = [
    "compiler.ms",
    "compiler.parse_ms",
    "compiler.codegen_emit_ms",
    "opt.ms",
    "regalloc.ms",
    "sched.ms",
    "sched.nopipe_ms",
    "sched.pipeline_extra_ms",
    "sched.compile_share",
    "asm.ms",
    "wcet.ms",
    "wcet.cfg_ms",
    "sim.new_ms",
    "sim.run_ms",
    "sim.drop_ms",
    "sim.mcycles_per_s",
];

/// Checked command-line arguments.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.clamp(1, 120),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1\n{}", usage())),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    Ok(Args {
        kind: kind.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric values by name.
type Metrics = BTreeMap<&'static str, f64>;

/// `times` multiplied by `factor`.
fn scaled(times: BTreeMap<&'static str, f64>, factor: f64) -> BTreeMap<&'static str, f64> {
    times
        .into_iter()
        .map(|(name, t)| (name, t * factor))
        .collect()
}

/// Per-layer host times of one traced pass or set-up, from the self
/// times of its spans. `cycles` are the guest cycles the segment
/// simulated. The compiler's private code generation and emission get
/// the residual of `compile_to_asm` after the replayed layers.
fn layer_times(self_ms: &BTreeMap<&str, f64>, cycles: f64) -> Metrics {
    let get = |name: &str| self_ms.get(name).copied();
    let compile = get("compiler.compile_to_asm");
    let parse = get("compiler.parse");
    let opt = get("opt.optimize_with");
    let regalloc = get("regalloc.regalloc");
    let sched = get("sched.schedule_with_report");
    let nopipe = get("sched.schedule_nopipe");
    let assemble = get("asm.assemble");
    let run = get("sim.run").or(get("sim.run_injection"));
    let mut out = BTreeMap::new();
    for (name, value) in [
        ("compiler.ms", compile),
        ("compiler.parse_ms", parse),
        ("opt.ms", opt),
        ("regalloc.ms", regalloc),
        ("sched.ms", sched),
        ("sched.nopipe_ms", nopipe),
        ("asm.ms", assemble),
        ("wcet.ms", get("wcet.analyze")),
        ("wcet.cfg_ms", get("wcet.build_cfgs")),
        ("sim.new_ms", get("sim.new")),
        ("sim.run_ms", run),
        ("sim.drop_ms", get("sim.drop")),
        ("sim.mcycles_per_s", run.map(|ms| cycles / (ms * 1e3))),
        (
            "sched.pipeline_extra_ms",
            sched.zip(nopipe).map(|(s, n)| s - n),
        ),
        (
            "compiler.codegen_emit_ms",
            compile
                .zip(parse)
                .zip(regalloc.zip(sched))
                .map(|((c, p), (r, s))| c - p - opt.unwrap_or(0.0) - r - s),
        ),
        (
            "sched.compile_share",
            sched
                .zip(compile.zip(assemble))
                .map(|(s, (c, a))| s / (c + a)),
        ),
    ] {
        if let Some(v) = value {
            out.insert(name, v);
        }
    }
    out
}

/// The median of `name` over the segments that measured it.
fn median_of(segments: &[Metrics], name: &str) -> Option<f64> {
    let values: Vec<f64> = segments
        .iter()
        .filter_map(|s| s.get(name).copied())
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Everything one run measured.
struct Run {
    bench: Bench,
    /// Set-up times, seconds at the reference speed.
    setup_s: Vec<f64>,
    /// Suite compile time inside each set-up, at the reference speed.
    setup_compile_ms: Vec<f64>,
    /// Layer times of each traced set-up.
    setup_layers: Vec<Metrics>,
    /// Values of the set-ups' reference jobs.
    setup_ref: Reference,
    /// Values of the measured jobs.
    reference: Reference,
    kernels: Vec<KernelTimes>,
    plain: Vec<PassOut>,
    traced: Vec<PassOut>,
    /// Traced pass times without their probes.
    traced_net_ms: Vec<f64>,
    /// Layer times of each traced pass.
    pass_layers: Vec<Metrics>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Run {
    /// The reference that holds values named `name`: the measured jobs',
    /// else the set-ups'.
    fn source(&self, name: &str) -> &Reference {
        if self.reference.has(name) {
            &self.reference
        } else {
            &self.setup_ref
        }
    }

    fn total(&self, name: &str) -> u64 {
        self.source(name).total(name)
    }

    /// The four fault outcomes summed over one pass.
    fn outcomes(&self) -> u64 {
        [
            "faults.masked",
            "faults.sdc",
            "faults.detected",
            "faults.hang",
        ]
        .iter()
        .map(|n| self.total(n))
        .sum()
    }
}

/// One timed set-up, traced (with the layer replay) on a traced run:
/// the workload, its reference values, its seconds and, traced, its
/// layer times.
fn timed_setup(
    args: &Args,
    tr: &mut Tracer,
    fidelity: bool,
) -> Result<(Bench, SetupOut, f64, Option<Metrics>), String> {
    tr.set_enabled(args.trace);
    let mark = tr.mark();
    let start = Instant::now();
    let (bench, out) = Bench::setup(args.kind, args.seed, tr, args.trace, fidelity)?;
    let raw_ns = start.elapsed().as_nanos() as u64 - out.gauge.spent_ns;
    let slowdown = out.gauge.mean();
    let cycles = out.reference.total("guest_cycles") as f64;
    let layers = args
        .trace
        .then(|| layer_times(&scaled(tr.self_ms(mark), 1.0 / slowdown), cycles));
    Ok((bench, out, raw_ns as f64 / 1e9 / slowdown, layers))
}

/// Set-ups and passes for `args.seconds`: the set-ups spread evenly over
/// the run, passes in between; with tracing, every other pass traced.
/// Every set-up must reproduce the first one's values.
fn measure(args: &Args) -> Result<Run, String> {
    let mut tr = Tracer::new(args.trace);
    let budget = Duration::from_secs(args.seconds);
    let gap = budget / SETUP_REPS as u32;
    let start = Instant::now();
    let (bench, first, secs, layers) = timed_setup(args, &mut tr, args.trace)?;
    let mut run = Run {
        kernels: vec![KernelTimes::default(); bench.kernel_names().len()],
        bench,
        setup_s: vec![secs],
        setup_compile_ms: vec![first.compile_ms],
        setup_layers: layers.into_iter().collect(),
        reference: if args.kind.compiles() {
            first.reference.clone()
        } else {
            Reference::default()
        },
        setup_ref: first.reference,
        plain: Vec::new(),
        traced: Vec::new(),
        traced_net_ms: Vec::new(),
        pass_layers: Vec::new(),
        attempted: first.jobs,
        failed: 0,
        errors: Vec::new(),
    };
    let mut pass = 0u64;
    loop {
        let elapsed = start.elapsed();
        if run.setup_s.len() < SETUP_REPS && elapsed >= gap * run.setup_s.len() as u32 {
            let (_, out, secs, layers) = timed_setup(args, &mut tr, false)?;
            run.setup_s.push(secs);
            run.setup_compile_ms.push(out.compile_ms);
            run.setup_layers.extend(layers);
            run.attempted += out.jobs;
            if let Err(e) = run.setup_ref.same_setup(&out.reference) {
                run.failed += out.jobs;
                run.errors.push(e);
            }
            continue;
        }
        if elapsed >= budget && !(args.trace && run.traced.is_empty()) {
            break;
        }
        let probe = args.trace && pass % 2 == 1;
        tr.set_enabled(probe);
        let mark = tr.mark();
        let out = run
            .bench
            .run_pass(pass, &mut tr, probe, &mut run.reference, &mut run.kernels);
        run.attempted += out.jobs;
        run.failed += out.failed;
        if let Some(e) = &out.first_error {
            run.errors
                .push(format!("pass {pass}: {e} ({} failed)", out.failed));
        }
        if probe {
            // Layer times per round of the job set, like `compile_ms`,
            // at the reference speed.
            let speedup = out.ms / out.raw_ms;
            let per_round = scaled(tr.self_ms(mark), speedup / run.bench.rounds() as f64);
            let cycles = run.reference.total("guest_cycles") as f64;
            run.pass_layers.push(layer_times(&per_round, cycles));
            run.traced_net_ms
                .push(out.ms - tr.total_ms(mark, "probe") * speedup);
            run.traced.push(out);
        } else {
            run.plain.push(out);
        }
        pass += 1;
    }
    if args.kind == Kind::FaultCampaign && run.outcomes() != run.bench.round_jobs() as u64 {
        run.errors.push(format!(
            "fault tallies sum to {}, not the {} injections of a pass",
            run.outcomes(),
            run.bench.round_jobs()
        ));
    }
    if args.trace {
        write_spans(args, &run, &tr)?;
    }
    Ok(run)
}

/// End-to-end metrics, from the untraced passes and the set-ups.
fn end_to_end(args: &Args, run: &Run) -> Metrics {
    let pass_ms: Vec<f64> = run.plain.iter().map(|p| p.ms).collect();
    let compile_ms = if args.kind.compiles() {
        median(&run.plain.iter().map(|p| p.compile_ms).collect::<Vec<_>>())
    } else {
        median(&run.setup_compile_ms)
    };
    let pass_jobs = (run.bench.round_jobs() * run.bench.rounds()) as f64;
    let ratios: Vec<f64> = run
        .source("wcet_bound_cycles")
        .bound_pairs()
        .iter()
        .map(|&(b, c)| b as f64 / c as f64)
        .collect();
    [
        ("setup_s", median(&run.setup_s)),
        ("jobs_per_s", pass_jobs / (median(&pass_ms) / 1e3)),
        ("pass_ms_p50", median(&pass_ms)),
        ("compile_ms_p50", compile_ms),
        ("peak_rss_mb", peak_rss_mb()),
        ("guest_cycles", run.total("guest_cycles") as f64),
        ("wcet_bound_cycles", run.total("wcet_bound_cycles") as f64),
        ("bound_ratio", geomean(&ratios)),
        ("code_bytes", run.total("code_bytes") as f64),
    ]
    .into_iter()
    .collect()
}

/// Per-layer metrics: host times from the traced passes (else the
/// traced set-ups, for layers only the set-up runs), counts from the
/// jobs' deterministic values.
fn per_layer(run: &Run) -> Metrics {
    let mut layer: Metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = if TIMED.contains(&name) {
                median_of(&run.pass_layers, name)
                    .or_else(|| median_of(&run.setup_layers, name))
                    .unwrap_or(0.0)
            } else {
                run.total(name) as f64
            };
            (name, value)
        })
        .collect();
    let pipelined = run.total("sched.pipelined");
    layer.insert(
        "sched.pipeline_yield",
        ratio(pipelined, pipelined + run.total("sched.pipeline_refused")),
    );
    let fast = run.source("sim.fast_cycles");
    layer.insert(
        "sim.fast_coverage",
        ratio(fast.total("sim.fast_cycles"), fast.total("guest_cycles")),
    );
    layer.insert(
        "faults.sdc_ratio",
        ratio(run.total("faults.sdc"), run.outcomes()),
    );
    let untraced: Vec<f64> = run.plain.iter().map(|p| p.ms).collect();
    layer.insert(
        "trace.overhead_pct",
        100.0 * (median(&run.traced_net_ms) / median(&untraced) - 1.0),
    );
    layer.insert("trace.passes", run.traced.len() as f64);
    layer
}

/// One row per kernel on the suite workloads: (name, compile ms, sched
/// ms, guest cycles, bound); host times are medians.
fn kernel_rows(run: &Run) -> Vec<(&'static str, f64, Option<f64>, u64, u64)> {
    run.bench
        .kernel_names()
        .into_iter()
        .zip(&run.kernels)
        .enumerate()
        .map(|(k, (name, times))| {
            let sched = (!times.sched_ms.is_empty()).then(|| median(&times.sched_ms));
            (
                name,
                median(&times.compile_ms),
                sched,
                run.reference.value(k, "guest_cycles").unwrap_or(0),
                run.reference.value(k, "wcet_bound_cycles").unwrap_or(0),
            )
        })
        .collect()
}

/// Writes the spans, per-layer metrics and kernel rows of a traced run
/// to `.bench_out/<workload>-seed<seed>.json`.
fn write_spans(args: &Args, run: &Run, tr: &Tracer) -> Result<(), String> {
    let layer = per_layer(run);
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(n, _)| format!("\"{n}\": {}", finite(layer[n])))
        .collect();
    let rows: Vec<String> = if args.kind.compiles() {
        kernel_rows(run)
            .iter()
            .map(|(name, compile, sched, cycles, bound)| {
                format!(
                    "{{\"kernel\": \"{name}\", \"compile_ms\": {}, \"sched_ms\": {}, \"guest_cycles\": {cycles}, \"wcet_bound_cycles\": {bound}}}",
                    finite(*compile),
                    finite(sched.unwrap_or(0.0))
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.json", args.kind.name(), args.seed));
    let body = format!(
        "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"per_layer\": {{{}}},\n\"kernels\": [{}],\n{}\n}}\n",
        args.kind.name(),
        args.seed,
        layers.join(", "),
        rows.join(",\n"),
        tr.spans_json()
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// The human-readable report: every metric with its unit, the kernel
/// rows and the checks.
fn report(args: &Args, run: &Run, e2e: &Metrics, correct: bool) -> String {
    let mut out = String::new();
    let pass_ms: Vec<f64> = run.plain.iter().map(|p| p.ms).collect();
    writeln!(
        out,
        "perfbench {} seed {} ({} s, {}): {} set-ups, {} untraced + {} traced passes of {} round(s) x {} jobs",
        args.kind.name(),
        args.seed,
        args.seconds,
        if args.trace { "traced" } else { "untraced" },
        run.setup_s.len(),
        run.plain.len(),
        run.traced.len(),
        run.bench.rounds(),
        run.bench.round_jobs()
    )
    .ok();
    writeln!(
        out,
        "end-to-end (untraced passes; host times at the reference speed):"
    )
    .ok();
    for (name, unit) in END_TO_END {
        writeln!(out, "  {name:<26} {:>16.4} {unit}", e2e[name]).ok();
    }
    let (tail_ms, tail_pct) = tail(&pass_ms);
    writeln!(
        out,
        "  pass_ms over {} passes: p50 {:.3}, tail p{tail_pct:.1} {tail_ms:.3}",
        pass_ms.len(),
        median(&pass_ms)
    )
    .ok();
    let raw_ms: Vec<f64> = run.plain.iter().map(|p| p.raw_ms).collect();
    let slowdown: Vec<f64> = run.plain.iter().map(|p| p.raw_ms / p.ms).collect();
    writeln!(
        out,
        "  as measured: pass_ms p50 {:.3}; host slowdown against the reference p50 {:.3}, max {:.3}",
        median(&raw_ms),
        median(&slowdown),
        slowdown.iter().copied().fold(0.0, f64::max)
    )
    .ok();
    writeln!(
        out,
        "  jobs attempted {}, failed {} (fail_ratio {:.4})",
        run.attempted,
        run.failed,
        ratio(run.failed as u64, run.attempted as u64)
    )
    .ok();
    if args.trace {
        let layer = per_layer(run);
        writeln!(
            out,
            "per-layer (medians over traced passes, else traced set-ups; at the reference speed):"
        )
        .ok();
        for (name, unit) in PER_LAYER {
            writeln!(out, "  {name:<26} {:>16.4} {unit}", layer[name]).ok();
        }
        writeln!(
            out,
            "  sched self time is {:.1}% of compile time (compile_to_asm + assemble)",
            100.0 * layer["sched.compile_share"]
        )
        .ok();
    }
    if args.kind.compiles() {
        writeln!(
            out,
            "{:<12} {:>11} {:>10} {:>12} {:>12}",
            "kernel", "compile_ms", "sched_ms", "cycles", "bound"
        )
        .ok();
        for (name, compile, sched, cycles, bound) in kernel_rows(run) {
            let sched = sched.map_or("-".to_string(), |s| format!("{s:.3}"));
            writeln!(
                out,
                "{name:<12} {compile:>11.3} {sched:>10} {cycles:>12} {bound:>12}"
            )
            .ok();
        }
    }
    writeln!(
        out,
        "checks: R1 = Rust reference, bound >= cycles, fault tallies = injections, values equal across passes and set-ups{}: {}",
        if args.trace { ", replay fidelity" } else { "" },
        if correct { "ok" } else { "FAILED" }
    )
    .ok();
    for e in run.errors.iter().take(10) {
        writeln!(out, "  error: {e}").ok();
    }
    out
}

fn main() -> ExitCode {
    match measure_and_report() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn measure_and_report() -> Result<(), String> {
    let args = parse_args()?;
    let run = measure(&args)?;
    let correct = run.failed == 0 && run.errors.is_empty();
    let e2e = end_to_end(&args, &run);
    print!("{}", report(&args, &run, &e2e, correct));
    let (metrics, units) = if args.trace {
        (per_layer(&run), &PER_LAYER[..])
    } else {
        (e2e, &END_TO_END[..])
    };
    let fields: Vec<String> = units
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted,
        run.failed,
        fields.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let (e2e, layers) = json
            .split_once("\"per_layer\"")
            .expect("a per_layer section");
        for (section, metrics) in [(e2e, &END_TO_END[..]), (layers, &PER_LAYER[..])] {
            assert_eq!(section.matches("\"unit\":").count(), metrics.len());
            for (name, unit) in metrics {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{name} [{unit}] is not declared");
            }
        }
        assert_eq!(json.matches("\"why\":").count(), Kind::ALL.len());
        for kind in Kind::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", kind.name())));
        }
        for name in TIMED {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn codegen_and_emit_get_the_residual() {
        let self_ms: BTreeMap<&str, f64> = [
            ("compiler.compile_to_asm", 100.0),
            ("compiler.parse", 1.0),
            ("opt.optimize_with", 10.0),
            ("regalloc.regalloc", 2.0),
            ("sched.schedule_with_report", 80.0),
            ("sched.schedule_nopipe", 30.0),
            ("asm.assemble", 4.0),
            ("sim.run", 2.0),
        ]
        .into_iter()
        .collect();
        let layers = layer_times(&self_ms, 4000.0);
        assert_eq!(layers["compiler.codegen_emit_ms"], 7.0);
        assert_eq!(layers["sched.pipeline_extra_ms"], 50.0);
        assert_eq!(layers["sched.compile_share"], 80.0 / 104.0);
        assert_eq!(layers["sim.mcycles_per_s"], 2.0);
        assert!(!layers.contains_key("wcet.ms"));
    }
}
