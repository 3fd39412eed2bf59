//! Model-based test of the liveness dataflow: on random single-function
//! modules, [`patmos_lir::analyze`] and [`patmos_lir::block_liveness`]
//! must agree exactly with the original `HashSet` formulation of the
//! same dataflow, kept below as the oracle — block live-in and
//! live-out, the live intervals and the live-across-call sets.
//!
//! The modules have 1–120 instructions, labels reached by forward and
//! backward branches (guarded and unconditional), guarded defs, calls,
//! returns and halts, and register ids spread over several 64-bit words
//! of the bit sets.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use patmos_isa::{AccessSize, AluOp, CmpOp, Guard, MemArea, Pred, Reg};
use patmos_lir::{
    analyze, block_liveness, build_vcfg, split_functions, FuncCode, Interval, VCfg, VInst, VItem,
    VModule, VOp, VReg, VRegSet,
};

// --- The oracle: the dataflow over `HashSet`s, as first written. ---

/// Defs and uses of one instruction, with guarded defs widened to uses.
fn def_uses(inst: &patmos_lir::VInst) -> (Option<VReg>, Vec<VReg>) {
    let def = inst.op.def();
    let mut uses: Vec<VReg> = inst.op.uses().into_iter().flatten().collect();
    if let Some(d) = def {
        if !inst.guard.is_always() {
            uses.push(d);
        }
    }
    (def, uses)
}

/// The oracle's result for one function.
struct Liveness {
    /// Intervals sorted by `(start, vreg id)`.
    intervals: Vec<Interval>,
    /// For each call position (same order as `VCfg::call_positions`),
    /// the virtual registers live after the call, sorted by id.
    live_across_calls: Vec<Vec<VReg>>,
    /// Registers live at each block's entry (indexed like `VCfg::blocks`).
    block_live_in: Vec<HashSet<VReg>>,
    /// Registers live at each block's exit (indexed like `VCfg::blocks`).
    block_live_out: Vec<HashSet<VReg>>,
}

/// Computes liveness for one function.
fn oracle_analyze(func: &FuncCode<'_>, cfg: &VCfg) -> Liveness {
    let nblocks = cfg.blocks.len();

    // Block-level gen (upward-exposed uses) and kill (defs).
    let mut gen: Vec<HashSet<VReg>> = vec![HashSet::new(); nblocks];
    let mut kill: Vec<HashSet<VReg>> = vec![HashSet::new(); nblocks];
    for (bi, block) in cfg.blocks.iter().enumerate() {
        for pos in block.first..block.end {
            let (def, uses) = def_uses(func.insts[pos].1);
            for u in uses {
                if !kill[bi].contains(&u) {
                    gen[bi].insert(u);
                }
            }
            if let Some(d) = def {
                kill[bi].insert(d);
            }
        }
    }

    // Iterate live_in/live_out to a fixpoint (backward problem).
    let mut live_in: Vec<HashSet<VReg>> = vec![HashSet::new(); nblocks];
    let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            let mut out: HashSet<VReg> = HashSet::new();
            for &s in &cfg.blocks[bi].succs {
                out.extend(live_in[s].iter().copied());
            }
            let mut inn: HashSet<VReg> = gen[bi].clone();
            inn.extend(out.difference(&kill[bi]).copied());
            if out != live_out[bi] || inn != live_in[bi] {
                changed = true;
                live_out[bi] = out;
                live_in[bi] = inn;
            }
        }
    }

    // Intervals: walk each block backwards from its live-out set.
    let mut ranges: HashMap<VReg, (usize, usize)> = HashMap::new();
    let extend = |v: VReg, pos: usize, ranges: &mut HashMap<VReg, (usize, usize)>| {
        let e = ranges.entry(v).or_insert((pos, pos));
        e.0 = e.0.min(pos);
        e.1 = e.1.max(pos);
    };
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if block.first == block.end {
            continue;
        }
        for &v in &live_out[bi] {
            extend(v, block.end - 1, &mut ranges);
        }
        for &v in &live_in[bi] {
            extend(v, block.first, &mut ranges);
        }
        for pos in block.first..block.end {
            let (def, uses) = def_uses(func.insts[pos].1);
            for u in uses {
                extend(u, pos, &mut ranges);
            }
            if let Some(d) = def {
                extend(d, pos, &mut ranges);
            }
        }
    }
    let mut intervals: Vec<Interval> = ranges
        .into_iter()
        .map(|(vreg, (start, end))| Interval { vreg, start, end })
        .collect();
    intervals.sort_by_key(|iv| (iv.start, iv.vreg.id()));

    // Per-call live-after sets: walk the call's block backwards from its
    // live-out, stopping once the call position is reached.
    let mut live_across_calls = Vec::with_capacity(cfg.call_positions.len());
    for &call_pos in &cfg.call_positions {
        let bi = cfg.block_of(call_pos);
        let block = &cfg.blocks[bi];
        let mut live: HashSet<VReg> = live_out[bi].clone();
        for pos in (call_pos + 1..block.end).rev() {
            let (def, uses) = def_uses(func.insts[pos].1);
            if let Some(d) = def {
                live.remove(&d);
            }
            for u in uses {
                live.insert(u);
            }
        }
        let mut sorted: Vec<VReg> = live.into_iter().collect();
        sorted.sort_by_key(|v| v.id());
        live_across_calls.push(sorted);
    }

    Liveness {
        intervals,
        live_across_calls,
        block_live_in: live_in,
        block_live_out: live_out,
    }
}

// --- Random modules. ---

/// One generated instruction: an opcode selector, three register ids, a
/// branch-target selector, whether the instruction is guarded and
/// whether a label precedes it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: u8,
    regs: (u32, u32, u32),
    target: usize,
    guarded: bool,
    label: bool,
}

/// Register ids: mostly a small pool, but also ids in the second and
/// third 64-bit words of a bit set, and the zero register.
fn reg() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..12, 1u32..12, 60u32..70, 126u32..132, Just(0u32)]
}

fn slot() -> impl Strategy<Value = Slot> {
    (
        0u8..16,
        (reg(), reg(), reg()),
        0usize..64,
        any::<bool>(),
        0u8..4,
    )
        .prop_map(|(kind, regs, target, guarded, label)| Slot {
            kind,
            regs,
            target,
            guarded,
            label: label == 0,
        })
}

/// The function `f` built from `slots`; with `end_label`, a label also
/// follows the last instruction.
fn module(slots: &[Slot], end_label: bool) -> VModule {
    let labels: Vec<String> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.label)
        .map(|(i, _)| format!("f_l{i}"))
        .chain(end_label.then(|| "f_end".to_string()))
        .collect();
    let mut items = vec![VItem::FuncStart("f".into())];
    for (i, s) in slots.iter().enumerate() {
        if s.label {
            items.push(VItem::Label(format!("f_l{i}")));
        }
        let (a, b, c) = (
            VReg::new(s.regs.0),
            VReg::new(s.regs.1),
            VReg::new(s.regs.2),
        );
        let guard = if s.guarded {
            Guard::when(Pred::P1)
        } else {
            Guard::ALWAYS
        };
        let inst = match s.kind {
            0 | 1 => VInst::new(guard, VOp::LoadImmLow { rd: a, imm: 1 }),
            2 | 3 => VInst::new(
                guard,
                VOp::AluR {
                    op: AluOp::Add,
                    rd: a,
                    rs1: b,
                    rs2: c,
                },
            ),
            4 => VInst::new(
                guard,
                VOp::AluI {
                    op: AluOp::Sub,
                    rd: a,
                    rs1: b,
                    imm: 1,
                },
            ),
            5 => VInst::always(VOp::CmpI {
                op: CmpOp::Lt,
                pd: Pred::P1,
                rs1: b,
                imm: 4,
            }),
            6 => VInst::always(VOp::Store {
                area: MemArea::Static,
                size: AccessSize::Word,
                ra: b,
                offset: 0,
                rs: c,
            }),
            7 => VInst::always(VOp::CopyToPhys {
                dst: Reg::R3,
                src: b,
            }),
            8 => VInst::new(
                guard,
                VOp::CopyFromPhys {
                    dst: a,
                    src: Reg::R1,
                },
            ),
            9 | 10 => VInst::always(VOp::CallFunc("g".into())),
            11..=13 if !labels.is_empty() => {
                VInst::new(guard, VOp::BrLabel(labels[s.target % labels.len()].clone()))
            }
            14 => VInst::always(VOp::Ret),
            15 => VInst::always(VOp::Halt),
            _ => VInst::always(VOp::CopyToPhys {
                dst: Reg::R1,
                src: c,
            }),
        };
        items.push(VItem::Inst(inst));
    }
    if end_label {
        items.push(VItem::Label("f_end".into()));
    }
    VModule {
        data_lines: Vec::new(),
        entry: "f".into(),
        items,
    }
}

/// The registers of `set`, checked to come out in id order.
fn ordered(set: &VRegSet) -> Vec<VReg> {
    let regs: Vec<VReg> = set.iter().collect();
    assert!(
        regs.windows(2).all(|w| w[0].id() < w[1].id()),
        "VRegSet::iter is not in id order: {regs:?}"
    );
    regs
}

fn sorted(set: &HashSet<VReg>) -> Vec<VReg> {
    let mut regs: Vec<VReg> = set.iter().copied().collect();
    regs.sort_by_key(|v| v.id());
    regs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Block sets, intervals and live-across-call sets all equal the
    /// oracle's, and `block_liveness` equals `analyze`'s block sets.
    #[test]
    fn bit_set_liveness_matches_the_hash_set_oracle(
        slots in prop::collection::vec(slot(), 1..=120),
        end_label in any::<bool>(),
    ) {
        let m = module(&slots, end_label);
        let funcs = split_functions(&m.items);
        prop_assert_eq!(funcs.len(), 1);
        let cfg = build_vcfg(&funcs[0], &m.items);
        let oracle = oracle_analyze(&funcs[0], &cfg);
        let live = analyze(&funcs[0], &cfg);
        let blocks = block_liveness(&funcs[0], &cfg);
        let text = m.render();

        prop_assert_eq!(live.block_live_in.len(), cfg.blocks.len());
        prop_assert_eq!(live.block_live_out.len(), cfg.blocks.len());
        for b in 0..cfg.blocks.len() {
            let want_in = sorted(&oracle.block_live_in[b]);
            let want_out = sorted(&oracle.block_live_out[b]);
            prop_assert_eq!(ordered(&live.block_live_in[b]), want_in.clone(), "live-in of block {}:\n{}", b, text);
            prop_assert_eq!(ordered(&live.block_live_out[b]), want_out.clone(), "live-out of block {}:\n{}", b, text);
            prop_assert_eq!(ordered(&blocks.live_in[b]), want_in, "block_liveness live-in of block {}:\n{}", b, text);
            prop_assert_eq!(ordered(&blocks.live_out[b]), want_out, "block_liveness live-out of block {}:\n{}", b, text);
        }
        prop_assert_eq!(&live.intervals, &oracle.intervals, "intervals:\n{}", text);
        prop_assert_eq!(&live.live_across_calls, &oracle.live_across_calls, "live across calls:\n{}", text);
    }

    /// `VRegSet` behaves as a set: against a `HashSet` model, inserts
    /// and removes report the same changes and membership agrees, and
    /// a set prints the same whatever capacity it has grown to.
    #[test]
    fn vreg_set_matches_a_hash_set(ops in prop::collection::vec((any::<bool>(), reg()), 0..64)) {
        let (mut set, mut model) = (VRegSet::default(), HashSet::new());
        for &(insert, id) in &ops {
            let v = VReg::new(id);
            if insert {
                prop_assert_eq!(set.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(set.remove(&v), model.remove(&v));
            }
            prop_assert_eq!(set.contains(&v), model.contains(&v));
        }
        prop_assert_eq!(ordered(&set), sorted(&model));
        let mut rebuilt = VRegSet::default();
        for v in sorted(&model) {
            rebuilt.insert(v);
        }
        prop_assert_eq!(format!("{rebuilt:?}"), format!("{set:?}"));
    }
}
