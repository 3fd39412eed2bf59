//! One job's calls into the toolchain, each wrapped in a span.
//!
//! Every helper calls only public entry points of the workspace crates,
//! so a span's time is the time of one layer's public call. The
//! compiler's code generation and emission are private; their time is
//! the residual of `compile_to_asm` minus the layers the probe times.

use std::time::Instant;

use patmos_asm::{assemble, ObjectImage};
use patmos_compiler::{
    compile_stats, compile_to_asm, compile_with_artifacts, parse, CompileOptions, Policy,
};
use patmos_isa::Reg;
use patmos_opt::{optimize_with, OptConfig};
use patmos_regalloc::regalloc;
use patmos_sched::{schedule_with_report, SchedOptions};
use patmos_sim::{SimConfig, Simulator};
use patmos_wcet::{analyze, build_cfgs, Machine};

use crate::trace::Tracer;

/// A kernel under test, with the result its Rust reference computes.
pub struct Kernel {
    /// Short name.
    pub name: &'static str,
    /// PatC source.
    pub source: String,
    /// Expected R1 at halt.
    pub expected: u32,
}

/// Named deterministic values a job produced; equal across passes.
pub type Values = Vec<(&'static str, u64)>;

/// A compiled kernel.
pub struct Compiled {
    /// The loadable image.
    pub image: ObjectImage,
    /// Host time of `compile_to_asm` plus `assemble`.
    pub compile_ns: u64,
    /// Deterministic values: code and assembly-text size.
    pub values: Values,
}

/// Compiles `kernel` the way `patmos_compiler::compile` does:
/// `compile_to_asm`, then `assemble`.
pub fn compile_kernel(
    tr: &mut Tracer,
    kernel: &Kernel,
    options: &CompileOptions,
) -> Result<Compiled, String> {
    let start = Instant::now();
    let asm = tr
        .span("compiler.compile_to_asm", |_| {
            compile_to_asm(&kernel.source, options)
        })
        .map_err(|e| format!("{}: {e}", kernel.name))?;
    let image = tr
        .span("asm.assemble", |_| assemble(&asm))
        .map_err(|e| format!("{}: assemble: {e}", kernel.name))?;
    let compile_ns = start.elapsed().as_nanos() as u64;
    let values = vec![
        ("code_bytes", image.code().len() as u64 * 4),
        ("asm.bytes_in", asm.len() as u64),
    ];
    Ok(Compiled {
        image,
        compile_ns,
        values,
    })
}

/// Bounds `image` with `wcet::analyze`, runs it on the simulator and
/// checks R1 against `expected` and the bound against the cycles.
/// Returns the deterministic values: R1, cycles, bound, memory counters.
pub fn check_image(
    tr: &mut Tracer,
    image: &ObjectImage,
    config: &SimConfig,
    expected: u32,
) -> Result<Values, String> {
    let report = tr
        .span("wcet.analyze", |_| {
            analyze(image, &Machine::Patmos(config.clone()))
        })
        .map_err(|e| format!("wcet: {e}"))?;
    let mut sim = tr
        .span("sim.new", |_| Simulator::try_new(image, config.clone()))
        .map_err(|e| format!("sim: {e}"))?;
    let run = tr
        .span("sim.run", |_| sim.run())
        .map_err(|e| format!("sim: {e}"))?;
    let r1 = sim.reg(Reg::R1);
    let host = sim.host_stats();
    tr.span("sim.drop", move |_| drop(sim));

    let stats = run.stats;
    if r1 != expected {
        return Err(format!("R1 = {r1}, reference {expected}"));
    }
    if report.bound_cycles < stats.cycles {
        return Err(format!(
            "unsound bound: {} < {} observed cycles",
            report.bound_cycles, stats.cycles
        ));
    }
    Ok(vec![
        ("r1", u64::from(r1)),
        ("guest_cycles", stats.cycles),
        ("wcet_bound_cycles", report.bound_cycles),
        ("mem.mcache_misses", stats.method_cache.misses),
        ("mem.dcache_misses", stats.data_cache.misses),
        ("mem.stall_cycles", stats.stalls.total()),
        ("mem.stack_ops", stats.stack_ops),
        ("sim.fast_cycles", host.fast_cycles),
    ])
}

/// The mid-end configuration `patmos_compiler` derives from `options`.
fn opt_config(options: &CompileOptions) -> OptConfig {
    OptConfig {
        shape_stable: options.single_path,
        trace: false,
        level: options.opt_level,
        pressure: options.constraints().pressure_estimate(),
        defer_pipelineable: options.sched_level >= 2 && !options.single_path,
    }
}

/// The scheduler options `patmos_compiler` derives from `options`.
fn sched_options(options: &CompileOptions) -> SchedOptions {
    SchedOptions {
        dual_issue: options.dual_issue,
        pipeline: options.sched_level >= 2 && !options.single_path,
        reuse_renaming: options.reg_policy == Policy::Loop,
    }
}

/// What the replay measured besides its spans.
pub struct Replay {
    /// Layer work counters.
    pub values: Values,
    /// `(bundles, dual-issue bundles)` of the replayed schedule.
    pub bundles: (usize, usize),
    /// Mid-end output size (`None` below opt level 1).
    pub insts_after: Option<usize>,
}

/// Re-drives the compiler's layers one public call at a time: `parse`,
/// then, from the pre-optimisation LIR that `compile_with_artifacts`
/// returns at opt level 0, `optimize_with` → `regalloc` →
/// `schedule_with_report` (once as configured, once with pipelining
/// off, first when `plain_first`), and `build_cfgs` on the compiled
/// image. Only scheduler levels 1 and 2 are supported.
pub fn replay(
    tr: &mut Tracer,
    kernel: &Kernel,
    options: &CompileOptions,
    image: &ObjectImage,
    plain_first: bool,
) -> Result<Replay, String> {
    assert!(
        options.sched_level >= 1,
        "the replay drives the DAG scheduler"
    );
    let fail = |e: &dyn std::fmt::Display| format!("{}: replay: {e}", kernel.name);
    tr.span("compiler.parse", |_| parse(&kernel.source))
        .map_err(|e| fail(&e))?;
    // Code generation does not read the opt or scheduler level; level 0
    // of both only keeps the discarded tail of this call cheap.
    let unoptimised = CompileOptions {
        opt_level: 0,
        sched_level: 0,
        ..options.clone()
    };
    let mut vmodule = tr
        .span("probe.prep", |_| {
            compile_with_artifacts(&kernel.source, &unoptimised)
        })
        .map_err(|e| fail(&e))?
        .vmodule;
    let opt = (options.opt_level >= 1).then(|| {
        tr.span("opt.optimize_with", |_| {
            optimize_with(&mut vmodule, opt_config(options))
        })
    });
    let (lir, alloc) = tr
        .span("regalloc.regalloc", |_| {
            regalloc(&options.constraints(), &vmodule)
        })
        .map_err(|e| fail(&e))?;
    let sched = sched_options(options);
    let plain = SchedOptions {
        pipeline: false,
        ..sched.clone()
    };
    let lir_copy = lir.clone();
    let configured = |tr: &mut Tracer, lir| {
        tr.span("sched.schedule_with_report", |_| {
            schedule_with_report(lir, &sched)
        })
    };
    let pipeline_off = |tr: &mut Tracer, lir| {
        tr.span("sched.schedule_nopipe", |_| {
            schedule_with_report(lir, &plain)
        });
    };
    // The second schedule of the same code finds the host caches warm;
    // callers alternate the order so the difference cancels that out.
    let (scheduled, report) = if plain_first {
        pipeline_off(tr, lir_copy);
        configured(tr, lir)
    } else {
        let out = configured(tr, lir);
        pipeline_off(tr, lir_copy);
        out
    };
    let cfgs = tr
        .span("wcet.build_cfgs", |_| build_cfgs(image))
        .map_err(|e| fail(&e))?;

    let bundles = scheduled.bundle_stats();
    let refused = report
        .remarks
        .iter()
        .filter(|r| r.pass == "modulo-sched" && !r.applied)
        .count();
    let opt_value = |f: fn(&patmos_opt::OptReport) -> usize| opt.as_ref().map_or(0, f) as u64;
    let values = vec![
        ("opt.rounds", opt_value(|r| r.rounds as usize)),
        ("opt.insts_in", opt_value(|r| r.insts_before)),
        ("opt.insts_out", opt_value(|r| r.insts_after)),
        ("opt.unrolls", opt_value(|r| r.unrolls.len())),
        ("opt.inlines", opt_value(|r| r.inlines.len())),
        ("regalloc.spills", alloc.total_pressure_spills() as u64),
        ("regalloc.frame_words", u64::from(alloc.total_frame_words())),
        ("sched.bundles", bundles.0 as u64),
        ("sched.dual_bundles", bundles.1 as u64),
        ("sched.hoisted", u64::from(report.total_hoisted())),
        ("sched.pipelined", report.pipelined_loops().count() as u64),
        ("sched.pipeline_refused", refused as u64),
        (
            "wcet.blocks",
            cfgs.iter().map(|c| c.blocks.len() as u64).sum(),
        ),
    ];
    Ok(Replay {
        values,
        bundles,
        insts_after: opt.map(|r| r.insts_after),
    })
}

/// Replay fidelity: the replayed schedule and mid-end output must be
/// those of the compiler's own pipeline, or the layer numbers would
/// describe a different program.
pub fn check_fidelity(
    kernel: &Kernel,
    options: &CompileOptions,
    replayed: &Replay,
) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: fidelity: {e}", kernel.name);
    let stats = compile_stats(&kernel.source, options).map_err(|e| fail(&e))?;
    if stats != replayed.bundles {
        return Err(fail(&format!(
            "replayed bundles {:?}, compile_stats {stats:?}",
            replayed.bundles
        )));
    }
    let artifacts = compile_with_artifacts(&kernel.source, options).map_err(|e| fail(&e))?;
    let insts_after = artifacts.opt.map(|r| r.insts_after);
    if insts_after != replayed.insts_after {
        return Err(fail(&format!(
            "replayed mid-end output {:?} insts, compiler {insts_after:?}",
            replayed.insts_after
        )));
    }
    Ok(())
}
