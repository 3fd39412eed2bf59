//! The pinned trajectory: the compiler's history as checked-in,
//! exact-match per-kernel numbers.
//!
//! Each file under `baselines/` pins one pipeline generation at
//! *explicit* compile configurations, so moving
//! `CompileOptions::default()` rewrites no history. [`TRAJECTORIES`] is
//! the single source of truth for all of them: per file its schema,
//! description, columns and gates. One reader
//! ([`Trajectory::pinned`]), one writer ([`Trajectory::json`]), one text
//! renderer ([`Trajectory::table`]) and one gate checker
//! ([`Trajectory::check`]) serve every file, and every measured value
//! comes from one [`measure`] per (kernel, configuration).

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use patmos::asm::{assemble, ObjectImage};
use patmos::compiler::{compile_with_artifacts, CompileOptions};
use patmos::isa::Reg;
use patmos::opt::UnrollKind;
use patmos::sim::{SimConfig, Simulator};
use patmos::wcet::{analyze, analyze_unpipelined, Machine};
use patmos::workloads::{self, Workload};
use patmos::Policy;

use crate::geomean_speedup;
use Column::{Historical, Measured};

/// A compile configuration a trajectory column is measured at:
/// `(opt_level, sched_level, reg_policy)`, every other option at its
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config(pub u8, pub u8, pub Policy);

impl Config {
    /// The compile options this configuration stands for.
    pub fn options(self) -> CompileOptions {
        CompileOptions {
            opt_level: self.0,
            sched_level: self.1,
            reg_policy: self.2,
            ..CompileOptions::default()
        }
    }
}

/// Straight lowering on the run scheduler.
pub const O0S0: Config = Config(0, 0, Policy::Linear);
/// The scalar mid-end on the run scheduler.
pub const O1S0: Config = Config(1, 0, Policy::Linear);
/// The scalar mid-end on the DAG scheduler.
pub const O1S1: Config = Config(1, 1, Policy::Linear);
/// The loop-aware mid-end on the DAG scheduler.
pub const O2S1: Config = Config(2, 1, Policy::Linear);
/// Partial unrolling + software pipelining under linear scan.
pub const O3S2: Config = Config(3, 2, Policy::Linear);
/// As [`O3S2`], under the loop-aware allocation policy.
pub const O3S2_LOOP: Config = Config(3, 2, Policy::Loop);

/// Every configuration a pinned column is measured at.
pub const CONFIGS: [Config; 6] = [O0S0, O1S0, O1S1, O2S1, O3S2, O3S2_LOOP];

/// Everything the trajectory files and tables read off one kernel
/// compiled at one [`Config`].
#[derive(Debug)]
pub struct Measure {
    /// Simulated cycles on the default machine.
    pub cycles: u64,
    /// Executed stack-cache data operations.
    pub stack_ops: u64,
    /// Executed second issue slots.
    pub second_slots: u64,
    /// Bundles issuing real work (non-pure-`nop`).
    pub active_bundles: u64,
    /// Modulo-scheduler register renames.
    pub renames: u64,
    /// Pure pressure spills of the allocator.
    pub spills: u64,
    /// Loops the unroller rewrote.
    pub unrolls: u64,
    /// `MII→II` of each software-pipelined loop (`-` when none).
    pub pipelined: String,
    /// The factor of each partially unrolled loop (`-` when none).
    pub partial_unrolls: String,
    /// The assembly the compile emitted, which this measurement ran.
    pub asm: String,
    image: ObjectImage,
    bounds: OnceLock<(u64, u64)>,
}

impl Measure {
    /// The `.pipeloop`-aware WCET bound and the bound with `.pipeloop`
    /// records ignored, which charges every pipelined loop's fallback
    /// its full `.loopbound`; both analysed on first use.
    pub fn bounds(&self) -> (u64, u64) {
        *self.bounds.get_or_init(|| {
            let machine = Machine::Patmos(SimConfig::default());
            let aware = analyze(&self.image, &machine).expect("kernel is analysable");
            let blind = analyze_unpipelined(&self.image, &machine).expect("kernel is analysable");
            (aware.bound_cycles, blind.bound_cycles)
        })
    }
}

fn cells(items: Vec<String>) -> String {
    if items.is_empty() {
        "-".into()
    } else {
        items.join(" ")
    }
}

/// Compiles `kernel` once at `config`, then assembles and simulates the
/// result once on the default machine. Panics when the kernel fails to
/// compile, assemble or run, or computes a wrong result.
pub fn measure(kernel: &Workload, config: Config) -> Measure {
    let artifacts = compile_with_artifacts(&kernel.source, &config.options())
        .unwrap_or_else(|e| panic!("{} does not compile at {config:?}: {e}", kernel.name));
    let image = assemble(&artifacts.asm).expect("compiled kernels assemble");
    let mut sim = Simulator::new(&image, SimConfig::default());
    sim.run().expect("kernel runs");
    let (result, stats) = (sim.reg(Reg::R1), sim.stats());
    let name = kernel.name;
    assert_eq!(result, kernel.expected, "{name} is wrong at {config:?}");
    let (opt, sched) = (artifacts.opt.as_ref(), artifacts.sched.as_ref());
    let unrolls = opt.map_or(&[][..], |r| &r.unrolls);
    let partial = unrolls.iter().filter(|u| u.kind != UnrollKind::Full);
    Measure {
        cycles: stats.cycles,
        stack_ops: stats.stack_ops,
        second_slots: stats.second_slots_used,
        active_bundles: stats.active_bundles(),
        renames: sched.map_or(0, |r| r.total_modulo_renames() as u64),
        spills: artifacts.allocation.total_pressure_spills() as u64,
        unrolls: unrolls.len() as u64,
        pipelined: cells(sched.map_or_else(Vec::new, |r| {
            let loops = r.pipelined_loops();
            loops.map(|l| format!("{}→{}", l.mii, l.ii)).collect()
        })),
        partial_unrolls: cells(partial.map(|u| format!("{}x", u.factor)).collect()),
        asm: artifacts.asm,
        image,
        bounds: OnceLock::new(),
    }
}

/// [`measure`], run once per (kernel, configuration) per process: the
/// toolchain is deterministic, so every table, writer and gate shares
/// one measurement.
pub fn measured(kernel: &Workload, config: Config) -> &'static Measure {
    type Memo = Vec<(&'static str, Config, &'static OnceLock<Measure>)>;
    static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
    let mut memo = MEMO.lock().expect("no panic while the memo is locked");
    let key = (kernel.name, config);
    let known = memo.iter().position(|m| (m.0, m.1) == key);
    let at = known.unwrap_or_else(|| {
        memo.push((kernel.name, config, Box::leak(Box::default())));
        memo.len() - 1
    });
    let cell = memo[at].2;
    drop(memo);
    cell.get_or_init(|| measure(kernel, config))
}

/// One per-kernel key of a trajectory file, with where its values
/// come from.
#[derive(Debug, Clone, Copy)]
pub enum Column {
    /// Read off the [`Measure`] at a configuration.
    Measured(&'static str, Config, fn(&Measure) -> u64),
    /// Recorded from a pipeline that no longer exists: the checked-in
    /// value is carried over unchanged.
    Historical(&'static str),
}

impl Column {
    /// The JSON key, also the text-table header.
    pub fn key(self) -> &'static str {
        let (Column::Measured(key, ..) | Column::Historical(key)) = self;
        key
    }
}

/// A check on a file; keys name its columns. All but [`Gate::Exact`]
/// check the pinned values.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// The file records exactly what the toolchain measures today.
    Exact,
    /// `(low, high, strict, only)`: `low` ≤ `high` (`<` when `strict`)
    /// on every kernel, or on the listed ones, which must be recorded.
    Order(&'static str, &'static str, bool, &'static [&'static str]),
    /// `(before, after, floor)`: `after` regresses no kernel, strictly
    /// improves the suite total and reaches the geomean speedup `floor`.
    Speedup(&'static str, &'static str, Option<f64>),
    /// `(slots, active, floor)`: suite `slots / active` ≥ `floor`.
    Utilisation(&'static str, &'static str, f64),
    /// `(column, file, other)`: on every kernel `file` records, `column`
    /// equals `other` there, so both files pin the same pipeline.
    CrossPin(&'static str, &'static str, &'static str),
    /// `(column, min, max)`: the suite total of `column` is in range.
    Total(&'static str, u64, u64),
}

/// A figure the text table derives from two columns, per kernel and
/// over the suite totals.
#[derive(Debug, Clone, Copy)]
pub enum Derived {
    /// `(header, num, den)`: `num / den` as a factor; the footer adds
    /// the geometric mean.
    Ratio(&'static str, &'static str, &'static str),
    /// `(header, before, after)`: `1 - after / before` as a percentage.
    Saved(&'static str, &'static str, &'static str),
    /// `(header, part, whole)`: `part / whole` as a percentage.
    Share(&'static str, &'static str, &'static str),
}

/// A text-table column the file does not record: header, and the cell
/// read off the [`Measure`] at a configuration.
pub type Extra = (&'static str, Config, fn(&Measure) -> String);

/// One checked-in trajectory file.
#[derive(Debug)]
pub struct Trajectory {
    /// File name under `crates/bench/baselines/`.
    pub file: &'static str,
    /// The checked-in contents.
    pub text: &'static str,
    /// The `schema` string.
    pub schema: &'static str,
    /// The `description` string, up to the regeneration command.
    pub about: &'static str,
    /// The bin that prints the table and, with `--json`, the file.
    pub bin: &'static str,
    /// The per-kernel keys, in file order.
    pub columns: &'static [Column],
    /// The checks on the file.
    pub gates: &'static [Gate],
    /// The text table's title.
    pub title: &'static str,
    /// Text-only measured columns the table adds to the file's.
    pub extras: &'static [Extra],
    /// Figures the text table derives.
    pub derived: &'static [Derived],
}

/// Kernels whose innermost loop is software-pipelined at `opt3/sched2`:
/// their bounds in `wcet_bounds.json` must tighten strictly.
pub const PIPELINED_KERNELS: [&str; 4] = ["dotprod64", "cnt2d", "fir8", "spmfilter"];

/// Every pinned trajectory file, oldest pipeline first.
pub static TRAJECTORIES: [Trajectory; 7] = [
    Trajectory {
        file: "regalloc_cycles.json",
        text: include_str!("../baselines/regalloc_cycles.json"),
        schema: "patmos-bench/regalloc-baseline/v1",
        about: "Per-kernel cycle counts and executed stack-cache operations, before (seed tree-walking codegen with ad-hoc spill fixups) and after (liveness-driven linear-scan register allocation in patmos-regalloc).",
        bin: "exp_e11_regalloc",
        columns: &[
            Historical("seed_cycles"),
            Historical("seed_stack_ops"),
            Measured("regalloc_cycles", O0S0, |m| m.cycles),
            Measured("regalloc_stack_ops", O0S0, |m| m.stack_ops),
        ],
        gates: &[
            Gate::Exact,
            Gate::Order("regalloc_cycles", "seed_cycles", true, &[]),
            Gate::Order("regalloc_stack_ops", "seed_stack_ops", true, &[]),
        ],
        title: "E11: liveness-driven register allocation vs seed codegen",
        extras: &[],
        derived: &[Derived::Ratio("speedup", "seed_cycles", "regalloc_cycles")],
    },
    Trajectory {
        file: "opt_cycles.json",
        text: include_str!("../baselines/opt_cycles.json"),
        schema: "patmos-bench/opt-baseline/v1",
        about: "Per-kernel cycle counts at opt_level 0 (straight lowering to the allocator, the PR 1 pipeline) and opt_level 1 (the patmos-opt mid-end: const-prop, strength reduction, CSE, copy-prop, DCE to a fixed point).",
        bin: "exp_e12_opt",
        columns: &[
            Measured("opt0_cycles", O0S0, |m| m.cycles),
            Measured("opt1_cycles", O1S0, |m| m.cycles),
        ],
        gates: &[
            Gate::Exact,
            Gate::CrossPin("opt0_cycles", "regalloc_cycles.json", "regalloc_cycles"),
            Gate::Speedup("opt0_cycles", "opt1_cycles", Some(1.10)),
        ],
        title: "E12: mid-end optimizer (patmos-opt) vs straight lowering",
        extras: &[],
        derived: &[
            Derived::Ratio("speedup", "opt0_cycles", "opt1_cycles"),
            Derived::Saved("saved", "opt0_cycles", "opt1_cycles"),
        ],
    },
    Trajectory {
        file: "sched_cycles.json",
        text: include_str!("../baselines/sched_cycles.json"),
        schema: "patmos-bench/sched-baseline/v1",
        about: "Per-kernel cycle counts at sched_level 0 (the historical run scheduler: adjacent-pair bundling, nop-filled delay slots — the PR 2 pipeline) and sched_level 1 (patmos-sched: per-block dependence DAGs, critical-path list scheduling, dual-issue packing, delay-slot filling), plus executed second issue slots and active (non-pure-nop) bundles at level 1.",
        bin: "exp_e13_sched",
        columns: &[
            Measured("sched0_cycles", O1S0, |m| m.cycles),
            Measured("sched1_cycles", O1S1, |m| m.cycles),
            Measured("sched1_second_slots", O1S1, |m| m.second_slots),
            Measured("sched1_active_bundles", O1S1, |m| m.active_bundles),
        ],
        gates: &[
            Gate::Exact,
            Gate::CrossPin("sched0_cycles", "opt_cycles.json", "opt1_cycles"),
            Gate::Speedup("sched0_cycles", "sched1_cycles", Some(1.05)),
            Gate::Utilisation("sched1_second_slots", "sched1_active_bundles", 0.15),
        ],
        title: "E13: dependence-DAG scheduler (patmos-sched) vs run scheduler",
        extras: &[],
        derived: &[
            Derived::Ratio("speedup", "sched0_cycles", "sched1_cycles"),
            Derived::Share("slot2 active", "sched1_second_slots", "sched1_active_bundles"),
        ],
    },
    Trajectory {
        file: "opt2_cycles.json",
        text: include_str!("../baselines/opt2_cycles.json"),
        schema: "patmos-bench/opt2-baseline/v1",
        about: "Per-kernel cycle counts at opt_level 1 (the scalar mid-end — the PR 3 pipeline, equal to sched1_cycles in sched_cycles.json) and opt_level 2 (the loop-aware mid-end: size-budgeted inlining, loop-invariant code motion, full unrolling of small constant-trip-count loops), both on the default backend.",
        bin: "exp_e14_opt2",
        columns: &[
            Measured("opt1_cycles", O1S1, |m| m.cycles),
            Measured("opt2_cycles", O2S1, |m| m.cycles),
        ],
        gates: &[
            Gate::Exact,
            Gate::CrossPin("opt1_cycles", "sched_cycles.json", "sched1_cycles"),
            Gate::Speedup("opt1_cycles", "opt2_cycles", Some(1.05)),
        ],
        title: "E14: loop-aware mid-end (inline + LICM + unroll) vs scalar mid-end",
        extras: &[],
        derived: &[
            Derived::Ratio("speedup", "opt1_cycles", "opt2_cycles"),
            Derived::Saved("saved", "opt1_cycles", "opt2_cycles"),
        ],
    },
    Trajectory {
        file: "opt3_cycles.json",
        text: include_str!("../baselines/opt3_cycles.json"),
        schema: "patmos-bench/opt3-baseline/v1",
        about: "Per-kernel cycle counts at opt_level 2 / sched_level 1 (the PR 4 pipeline, equal to opt2_cycles in opt2_cycles.json) and opt_level 3 / sched_level 2 (partial unrolling in the mid-end plus iterative modulo scheduling of innermost counted loops in the backend), with executed second issue slots and active (non-pure-nop) bundles at the latter.",
        bin: "exp_e15_pipeline",
        columns: &[
            Measured("opt2_cycles", O2S1, |m| m.cycles),
            Measured("opt3_cycles", O3S2, |m| m.cycles),
            Measured("opt3_second_slots", O3S2, |m| m.second_slots),
            Measured("opt3_active_bundles", O3S2, |m| m.active_bundles),
        ],
        gates: &[
            Gate::Exact,
            Gate::CrossPin("opt2_cycles", "opt2_cycles.json", "opt2_cycles"),
            Gate::Speedup("opt2_cycles", "opt3_cycles", Some(1.05)),
            Gate::Utilisation("opt3_second_slots", "opt3_active_bundles", 0.25),
        ],
        title: "E15: software pipelining + partial unrolling (opt3/sched2) vs the loop-aware mid-end (opt2/sched1)",
        extras: &[
            ("pipelined", O3S2, |m| m.pipelined.clone()),
            ("partial unroll", O3S2, |m| m.partial_unrolls.clone()),
        ],
        derived: &[
            Derived::Ratio("speedup", "opt2_cycles", "opt3_cycles"),
            Derived::Share("slot2 active", "opt3_second_slots", "opt3_active_bundles"),
        ],
    },
    Trajectory {
        file: "regalloc2_cycles.json",
        text: include_str!("../baselines/regalloc2_cycles.json"),
        schema: "patmos-bench/regalloc2-baseline/v1",
        about: "Per-kernel cycle counts and modulo-scheduler rename counts at opt_level 3 / sched_level 2 under both register-allocation policies: linear (the historical linear scan, equal to opt3_cycles in opt3_cycles.json) and loop (loop-aware allocation: round-robin assignment inside hot loops, preheader-hoisted caller-saves and invariant reloads, reuse-aware modulo renaming, liveness-based unroll pressure).",
        bin: "exp_e18_regalloc2",
        columns: &[
            Measured("linear_cycles", O3S2, |m| m.cycles),
            Measured("loop_cycles", O3S2_LOOP, |m| m.cycles),
            Measured("linear_renames", O3S2, |m| m.renames),
            Measured("loop_renames", O3S2_LOOP, |m| m.renames),
        ],
        gates: &[
            Gate::Exact,
            Gate::CrossPin("linear_cycles", "opt3_cycles.json", "opt3_cycles"),
            Gate::Speedup("linear_cycles", "loop_cycles", None),
            // Worst-case renaming under linear scan (54 renamed defs in
            // the pinned suite) drops to zero when reuse-aware.
            Gate::Total("linear_renames", 1, u64::MAX),
            Gate::Total("loop_renames", 0, 0),
        ],
        title: "E18: loop-aware register allocation (--reg-policy loop) vs linear scan (opt3/sched2)",
        extras: &[
            ("linear_spills", O3S2, |m| m.spills.to_string()),
            ("loop_spills", O3S2_LOOP, |m| m.spills.to_string()),
            ("linear_unrolls", O3S2, |m| m.unrolls.to_string()),
            ("loop_unrolls", O3S2_LOOP, |m| m.unrolls.to_string()),
        ],
        derived: &[Derived::Ratio("speedup", "linear_cycles", "loop_cycles")],
    },
    Trajectory {
        file: "wcet_bounds.json",
        text: include_str!("../baselines/wcet_bounds.json"),
        schema: "patmos-bench/wcet-bounds-baseline/v1",
        about: "Per-kernel WCET trajectory at opt_level 3 / sched_level 2: the pipelined-aware IPET bound (software-pipelined loops charged guard + prologue + kernel iterations at the II + epilogue via their .pipeloop records), the bound with those records ignored (the list-scheduled fallback charged its full .loopbound trips), and the cycles of one simulated run on the default machine.",
        bin: "exp_e19_wcet_trajectory",
        columns: &[
            Measured("bound_cycles", O3S2, |m| m.bounds().0),
            Measured("fallback_bound_cycles", O3S2, |m| m.bounds().1),
            Measured("measured_cycles", O3S2, |m| m.cycles),
        ],
        gates: &[
            Gate::Exact,
            Gate::Order("measured_cycles", "bound_cycles", false, &[]),
            Gate::Order("bound_cycles", "fallback_bound_cycles", false, &[]),
            Gate::Order("bound_cycles", "fallback_bound_cycles", true, &PIPELINED_KERNELS),
        ],
        title: "E19: pipeline-aware WCET bounds (opt3/sched2) vs the fallback-charged analysis",
        extras: &[],
        derived: &[
            Derived::Ratio("tightening", "fallback_bound_cycles", "bound_cycles"),
            Derived::Ratio("pessimism", "bound_cycles", "measured_cycles"),
        ],
    },
];

/// The trajectory pinned by `file`; panics when there is none.
pub fn get(file: &str) -> &'static Trajectory {
    TRAJECTORIES
        .iter()
        .find(|t| t.file == file)
        .unwrap_or_else(|| panic!("no trajectory file `{file}`"))
}

/// The body of a trajectory bin: the file's JSON with `--json`, its
/// text table otherwise.
pub fn bin_main(file: &str) {
    let (t, json) = (get(file), std::env::args().any(|a| a == "--json"));
    print!("{}", if json { t.json() } else { t.table() });
}

/// One kernel's values, in column order.
type Row = (String, Vec<u64>);

impl Trajectory {
    /// The command that regenerates the file.
    fn regen(&self) -> String {
        format!("cargo run -p patmos-bench --bin {} -- --json", self.bin)
    }

    fn index(&self, key: &str) -> usize {
        let found = self.columns.iter().position(|c| c.key() == key);
        found.unwrap_or_else(|| panic!("{} has no column `{key}`", self.file))
    }

    fn fail(&self, what: String) -> ! {
        let (file, regen) = (self.file, self.regen());
        panic!("{file}: {what} (regenerate with: {regen} > crates/bench/baselines/{file})")
    }

    /// The checked-in values, per kernel in file order.
    pub fn pinned(&self) -> Vec<Row> {
        let row = |(name, fields): (String, Vec<(&str, u64)>)| {
            let values = self.columns.iter().map(|c| field(&fields, c.key()));
            (name, values.collect())
        };
        read_kernels(self.text).into_iter().map(row).collect()
    }

    /// One checked-in value.
    pub fn pinned_value(&self, kernel: &str, key: &str) -> u64 {
        let row = self.pinned().into_iter().find(|(name, _)| name == kernel);
        let row = row.unwrap_or_else(|| self.fail(format!("{kernel}: not recorded")));
        row.1[self.index(key)]
    }

    /// Whether the file must record every suite kernel. One with
    /// historical columns keeps the kernels it was recorded with: a
    /// kernel added later has no history to record.
    fn full_suite(&self) -> bool {
        !self.columns.iter().any(|c| matches!(c, Historical(_)))
    }

    /// The kernels the file records (or must record).
    fn kernels(&self) -> Vec<Workload> {
        if self.full_suite() {
            return workloads::all();
        }
        let names = self.pinned().into_iter().map(|(name, _)| name);
        names.map(|name| self.kernel(&name)).collect()
    }

    fn kernel(&self, name: &str) -> Workload {
        // A recorded kernel's history must never be silently dropped.
        let w = workloads::by_name(name);
        w.unwrap_or_else(|| self.fail(format!("kernel `{name}` no longer exists")))
    }

    /// Fresh values of `columns` for `kernel` (historical ones as pinned).
    fn current(&self, kernel: &Workload, columns: &[Column]) -> Vec<u64> {
        let value = |c: &Column| match *c {
            Measured(_, config, value) => value(measured(kernel, config)),
            Historical(key) => self.pinned_value(kernel.name, key),
        };
        columns.iter().map(value).collect()
    }

    /// The file regenerated from fresh measurements.
    pub fn json(&self) -> String {
        let description = format!("{} Regenerate with: {}", self.about, self.regen());
        let rows = self.rows(self.kernels(), self.columns);
        write_json(self.schema, Some(&description), self.columns, &rows)
    }

    fn rows(&self, kernels: Vec<Workload>, columns: &[Column]) -> Vec<Row> {
        let row = |w: Workload| (w.name.to_string(), self.current(&w, columns));
        kernels.into_iter().map(row).collect()
    }

    /// The human-readable table of fresh measurements: per kernel the
    /// file's columns, the table's extras and the derived figures; then
    /// every column's suite total and the suite-level derived figures.
    pub fn table(&self) -> String {
        let mut header = vec!["kernel"];
        header.extend(self.columns.iter().map(|c| c.key()));
        header.extend(self.extras.iter().map(|e| e.0));
        header.extend(self.derived.iter().map(|d| d.parts().0));
        let mut lines = vec![header.into_iter().map(String::from).collect::<Vec<_>>()];
        let mut rows = Vec::new();
        for w in self.kernels() {
            let values = self.current(&w, self.columns);
            let mut line = vec![w.name.to_string()];
            line.extend(values.iter().map(u64::to_string));
            line.extend(self.extras.iter().map(|e| e.2(measured(&w, e.1))));
            let one = std::slice::from_ref(&values);
            line.extend(self.derived.iter().map(|d| self.derive(*d, one)));
            lines.push(line);
            rows.push(values);
        }
        let mut out = format!("{}\n", self.title);
        let width = |i: usize| lines.iter().map(|l| l[i].chars().count()).max();
        let widths: Vec<usize> = (0..lines[0].len()).filter_map(width).collect();
        for line in &lines {
            let mut text = format!("{:<w$}", line[0], w = widths[0]);
            for (cell, w) in line.iter().zip(&widths).skip(1) {
                write!(text, "  {cell:>w$}").ok();
            }
            writeln!(out, "{text}").ok();
        }
        let total = |(i, c): (usize, &Column)| {
            format!("{} {}", c.key(), rows.iter().map(|r| r[i]).sum::<u64>())
        };
        let totals: Vec<_> = self.columns.iter().enumerate().map(total).collect();
        writeln!(out, "total: {}", totals.join(", ")).ok();
        for d in self.derived {
            let (header, num, den) = d.parts();
            write!(out, "{header}: suite {}", self.derive(*d, &rows)).ok();
            if let Derived::Ratio(..) = d {
                let pair = |r: &Vec<u64>| (r[self.index(num)], r[self.index(den)]);
                let geomean = geomean_speedup(&rows.iter().map(pair).collect::<Vec<_>>());
                write!(out, ", geomean {geomean:.2}x").ok();
            }
            out.push('\n');
        }
        out
    }

    /// A derived figure over the summed values of `rows`: one row for a
    /// kernel's cell, all of them for the suite figure.
    fn derive(&self, d: Derived, rows: &[Vec<u64>]) -> String {
        let (_, a, b) = d.parts();
        let sum = |key| rows.iter().map(|r| r[self.index(key)]).sum::<u64>() as f64;
        let (a, b) = (sum(a), sum(b));
        match d {
            Derived::Ratio(..) => format!("{:.2}x", a / b),
            Derived::Saved(..) => format!("{:.1}%", 100.0 * (1.0 - b / a)),
            Derived::Share(..) => format!("{:.0}%", 100.0 * a / b.max(1.0)),
        }
    }

    /// Asserts the file records exactly what the toolchain measures
    /// today: every value, the kernel set and the bytes. The toolchain
    /// is deterministic, so any drift means a stale file.
    fn check_exact(&self) {
        let pinned = self.pinned();
        for (name, values) in &pinned {
            let now = self.current(&self.kernel(name), self.columns);
            for ((c, was), is) in self.columns.iter().zip(values).zip(now) {
                if *was != is {
                    self.fail(format!("{name}: {} pinned {was}, measured {is}", c.key()));
                }
            }
        }
        for w in workloads::all().iter().filter(|_| self.full_suite()) {
            if !pinned.iter().any(|(name, _)| name == w.name) {
                self.fail(format!("{}: suite kernel is not recorded", w.name));
            }
        }
        if self.json() != self.text {
            self.fail("the file differs from its regenerated form".to_string());
        }
    }

    /// Asserts one of this file's gates.
    pub fn check(&self, gate: &Gate) {
        let rows = self.pinned();
        let at = |key| self.index(key);
        let total = |key| rows.iter().map(|(_, r)| r[at(key)]).sum::<u64>();
        match *gate {
            Gate::Exact => self.check_exact(),
            Gate::Order(low, high, strict, only) => {
                if let Some(kernel) = only.iter().find(|k| !rows.iter().any(|(n, _)| n == *k)) {
                    self.fail(format!("{kernel}: gated kernel is not recorded"));
                }
                for (name, r) in &rows {
                    if !only.is_empty() && !only.contains(&name.as_str()) {
                        continue;
                    }
                    let (l, h) = (r[at(low)], r[at(high)]);
                    if l > h || (strict && l == h) {
                        let rel = if strict { "below" } else { "at most" };
                        self.fail(format!("{name}: {low} {l} must be {rel} {high} {h}"));
                    }
                }
            }
            Gate::Speedup(before, after, floor) => {
                let pairs: Vec<_> = rows
                    .iter()
                    .map(|(_, r)| (r[at(before)], r[at(after)]))
                    .collect();
                if let Some(((name, _), (b, a))) = rows.iter().zip(&pairs).find(|(_, (b, a))| a > b)
                {
                    self.fail(format!("{name}: {after} {a} regresses on {before} {b}"));
                }
                let (b, a) = (total(before), total(after));
                if a >= b {
                    self.fail(format!("suite {after} {a} is not below {before} {b}"));
                }
                let geomean = geomean_speedup(&pairs);
                if let Some(floor) = floor.filter(|&f| geomean < f) {
                    self.fail(format!("{after} geomean speedup {geomean:.3}x < {floor}x"));
                }
            }
            Gate::Utilisation(slots, active, floor) => {
                let utilisation = total(slots) as f64 / total(active) as f64;
                if utilisation < floor {
                    self.fail(format!("{slots}/{active} {utilisation:.3} < {floor}"));
                }
            }
            Gate::CrossPin(column, file, other) => {
                let older = get(file);
                for (name, r) in older.pinned() {
                    let (is, was) = (self.pinned_value(&name, column), r[older.index(other)]);
                    if is != was {
                        self.fail(format!("{name}: {column} {is} != {file} {other} {was}"));
                    }
                }
            }
            Gate::Total(column, min, max) => {
                let sum = total(column);
                if !(min..=max).contains(&sum) {
                    self.fail(format!("suite {column} {sum} is outside {min}..={max}"));
                }
            }
        }
    }
}

impl Derived {
    fn parts(self) -> (&'static str, &'static str, &'static str) {
        let (Derived::Ratio(h, a, b) | Derived::Saved(h, a, b) | Derived::Share(h, a, b)) = self;
        (h, a, b)
    }
}

/// The register-policy footprint at `opt3/sched2` — pure pressure
/// spills, modulo renames and unroller decisions per kernel under both
/// policies. Not pinned; the CI perf-trajectory job archives it.
pub fn regalloc2_footprint_json() -> String {
    const FOOTPRINT: [Column; 6] = [
        Measured("linear_spills", O3S2, |m| m.spills),
        Measured("loop_spills", O3S2_LOOP, |m| m.spills),
        Measured("linear_renames", O3S2, |m| m.renames),
        Measured("loop_renames", O3S2_LOOP, |m| m.renames),
        Measured("linear_unrolls", O3S2, |m| m.unrolls),
        Measured("loop_unrolls", O3S2_LOOP, |m| m.unrolls),
    ];
    let rows = get("regalloc2_cycles.json").rows(workloads::all(), &FOOTPRINT);
    let schema = "patmos-bench/regalloc2-footprint/v1";
    write_json(schema, None, &FOOTPRINT, &rows)
}

/// Renders per-kernel rows as a baseline document.
fn write_json(schema: &str, desc: Option<&str>, columns: &[Column], rows: &[Row]) -> String {
    let mut out = format!("{{\n  \"schema\": \"{schema}\",\n");
    if let Some(desc) = desc {
        writeln!(out, "  \"description\": \"{desc}\",").ok();
    }
    let kernel = |(name, values): &Row| {
        let fields = columns.iter().zip(values);
        let fields: Vec<_> = fields
            .map(|(c, v)| format!("      \"{}\": {v}", c.key()))
            .collect();
        format!("    \"{name}\": {{\n{}\n    }}", fields.join(",\n"))
    };
    let kernels: Vec<String> = rows.iter().map(kernel).collect();
    writeln!(out, "  \"kernels\": {{\n{}\n  }}\n}}", kernels.join(",\n")).ok();
    out
}

/// The per-kernel numeric fields of a baseline file, which keeps one
/// `"key": value` per line with each kernel's object opening on its
/// name's line.
pub(crate) fn read_kernels(text: &str) -> Vec<(String, Vec<(&str, u64)>)> {
    let mut kernels: Vec<(String, Vec<(&str, u64)>)> = Vec::new();
    let mut inside = false;
    for line in text.lines() {
        let Some((key, value)) = line.trim().split_once("\": ") else {
            continue;
        };
        let key = key.trim_start_matches('"');
        if value == "{" {
            if inside {
                kernels.push((key.to_string(), Vec::new()));
            }
            inside |= key == "kernels";
        } else if let Some((_, fields)) = kernels.last_mut() {
            let number = value.trim_end_matches(',').parse();
            let number = number.unwrap_or_else(|_| panic!("baseline key `{key}` is not a number"));
            fields.push((key, number));
        }
    }
    kernels
}

/// The value of `key` among one kernel's fields.
pub(crate) fn field(fields: &[(&str, u64)], key: &str) -> u64 {
    let found = fields.iter().find(|(k, _)| *k == key);
    found.map_or_else(|| panic!("baseline key `{key}` missing"), |f| f.1)
}
