//! Backward liveness dataflow over the virtual-register CFG.
//!
//! The core is [`block_liveness`]: the registers live at each block's
//! entry and exit, the least fixpoint of the backward dataflow
//! equations. Every set is a [`VRegSet`], a dense bit set indexed by
//! register id, so gen, kill, live-in and live-out are word arrays and
//! a dataflow sweep ORs and ANDs words. Dead-code elimination and
//! loop-invariant code motion ask only whether a register is live at a
//! block boundary and call it directly.
//!
//! [`analyze`] derives from those block sets what the register
//! allocator needs, per function:
//!
//! * one conservative live interval per virtual register (the `[first,
//!   last]` position span of every point where the value is live, with
//!   live-through blocks extending the span to their boundaries — the
//!   linearised-extent form linear scan wants), and
//! * the precise set of registers live *after* each call position, which
//!   is exactly the set the allocator must save around the call.
//!
//! A def under a non-always guard counts as a use as well: when the
//! guard is false the old value flows through, so the register must stay
//! live (and keep the same physical register) across the guarded write.

use std::fmt;

use crate::cfg::{FuncCode, VCfg};
use crate::vlir::{VInst, VReg};

/// The def and the uses of one instruction; a guarded def is a use too.
fn def_uses(inst: &VInst) -> (Option<VReg>, impl Iterator<Item = VReg>) {
    let def = inst.op.def();
    let guarded = def.filter(|_| !inst.guard.is_always());
    (def, inst.op.uses().into_iter().flatten().chain(guarded))
}

/// A set of virtual registers: a dense bit set indexed by register id.
///
/// [`VRegSet::iter`] yields registers in id order.
#[derive(Clone, Default)]
pub struct VRegSet {
    words: Vec<u64>,
}

impl VRegSet {
    /// An empty set that holds ids below `64 * words` without growing.
    fn with_words(words: usize) -> VRegSet {
        VRegSet {
            words: vec![0; words],
        }
    }

    /// The word index and bit mask of `v`.
    fn slot(v: VReg) -> (usize, u64) {
        let id = v.id() as usize;
        (id / 64, 1 << (id % 64))
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: &VReg) -> bool {
        let (w, bit) = Self::slot(*v);
        self.words.get(w).is_some_and(|&word| word & bit != 0)
    }

    /// Adds `v`; returns whether it was absent.
    pub fn insert(&mut self, v: VReg) -> bool {
        let (w, bit) = Self::slot(v);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let absent = self.words[w] & bit == 0;
        self.words[w] |= bit;
        absent
    }

    /// Removes `v`; returns whether it was present.
    pub fn remove(&mut self, v: &VReg) -> bool {
        let (w, bit) = Self::slot(*v);
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => {
                *word &= !bit;
                true
            }
            _ => false,
        }
    }

    /// The registers, in id order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    VReg::new(w as u32 * 64 + bit)
                })
            })
        })
    }
}

impl fmt::Debug for VRegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Registers live at each block's boundaries, indexed like
/// [`VCfg::blocks`].
#[derive(Debug)]
pub struct BlockLiveness {
    /// Registers live at each block's entry.
    pub live_in: Vec<VRegSet>,
    /// Registers live at each block's exit.
    pub live_out: Vec<VRegSet>,
}

/// Computes the registers live at each block's entry and exit.
pub fn block_liveness(func: &FuncCode<'_>, cfg: &VCfg) -> BlockLiveness {
    let nblocks = cfg.blocks.len();
    // One word per 64 ids up to the largest id the function names.
    let words = func
        .insts
        .iter()
        .flat_map(|(_, inst)| {
            inst.op
                .def()
                .into_iter()
                .chain(inst.op.uses().into_iter().flatten())
        })
        .map(|v| v.id() as usize / 64 + 1)
        .max()
        .unwrap_or(0);
    let empty = VRegSet::with_words(words);

    // Block-level gen (upward-exposed uses) and kill (defs).
    let mut gen = vec![empty.clone(); nblocks];
    let mut kill = vec![empty.clone(); nblocks];
    for ((block, gen), kill) in cfg.blocks.iter().zip(&mut gen).zip(&mut kill) {
        for (_, inst) in &func.insts[block.first..block.end] {
            let (def, uses) = def_uses(inst);
            for u in uses {
                if !kill.contains(&u) {
                    gen.insert(u);
                }
            }
            if let Some(d) = def {
                kill.insert(d);
            }
        }
    }

    // Iterate live_in/live_out to the least fixpoint (backward problem).
    // Starting from empty sets, every set only grows, so live-out
    // accumulates its successors' live-in in place.
    let mut live_in = vec![empty.clone(); nblocks];
    let mut live_out = vec![empty; nblocks];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..nblocks).rev() {
            let out = &mut live_out[bi].words;
            for &s in &cfg.blocks[bi].succs {
                for (o, &i) in out.iter_mut().zip(&live_in[s].words) {
                    *o |= i;
                }
            }
            let (gen, kill) = (&gen[bi].words, &kill[bi].words);
            for (w, inn) in live_in[bi].words.iter_mut().enumerate() {
                let new = gen[w] | (out[w] & !kill[w]);
                if new != *inn {
                    *inn = new;
                    changed = true;
                }
            }
        }
    }
    BlockLiveness { live_in, live_out }
}

/// A live interval over instruction positions, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The virtual register.
    pub vreg: VReg,
    /// First live position.
    pub start: usize,
    /// Last live position.
    pub end: usize,
}

/// The liveness result for one function.
pub struct Liveness {
    /// Intervals sorted by `(start, vreg id)`.
    pub intervals: Vec<Interval>,
    /// For each call position (same order as `VCfg::call_positions`),
    /// the virtual registers live after the call, sorted by id.
    pub live_across_calls: Vec<Vec<VReg>>,
    /// Registers live at each block's entry (indexed like `VCfg::blocks`).
    pub block_live_in: Vec<VRegSet>,
    /// Registers live at each block's exit (indexed like `VCfg::blocks`).
    pub block_live_out: Vec<VRegSet>,
}

/// Computes liveness for one function: the block sets of
/// [`block_liveness`] plus the intervals and live-across-call sets
/// derived from them.
pub fn analyze(func: &FuncCode<'_>, cfg: &VCfg) -> Liveness {
    let BlockLiveness { live_in, live_out } = block_liveness(func, cfg);

    // Intervals: each block's boundary sets and every def and use widen
    // the register's span. `(usize::MAX, 0)` marks an id never seen.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    let mut extend = |v: VReg, pos: usize| {
        let id = v.id() as usize;
        if id >= ranges.len() {
            ranges.resize(id + 1, (usize::MAX, 0));
        }
        let r = &mut ranges[id];
        r.0 = r.0.min(pos);
        r.1 = r.1.max(pos);
    };
    for (bi, block) in cfg.blocks.iter().enumerate() {
        if block.first == block.end {
            continue;
        }
        for v in live_out[bi].iter() {
            extend(v, block.end - 1);
        }
        for v in live_in[bi].iter() {
            extend(v, block.first);
        }
        for (pos, (_, inst)) in (block.first..).zip(&func.insts[block.first..block.end]) {
            let (def, uses) = def_uses(inst);
            for v in uses.chain(def) {
                extend(v, pos);
            }
        }
    }
    let mut intervals: Vec<Interval> = (0u32..)
        .zip(ranges)
        .filter(|&(_, (start, _))| start != usize::MAX)
        .map(|(id, (start, end))| Interval {
            vreg: VReg::new(id),
            start,
            end,
        })
        .collect();
    intervals.sort_unstable_by_key(|iv| (iv.start, iv.vreg.id()));

    // Per-call live-after sets: walk the call's block backwards from its
    // live-out, stopping once the call position is reached.
    let live_across_calls = cfg
        .call_positions
        .iter()
        .map(|&call_pos| {
            let bi = cfg.block_of(call_pos);
            let mut live = live_out[bi].clone();
            for (_, inst) in func.insts[call_pos + 1..cfg.blocks[bi].end].iter().rev() {
                let (def, uses) = def_uses(inst);
                if let Some(d) = def {
                    live.remove(&d);
                }
                for u in uses {
                    live.insert(u);
                }
            }
            live.iter().collect()
        })
        .collect();

    Liveness {
        intervals,
        live_across_calls,
        block_live_in: live_in,
        block_live_out: live_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build_vcfg, split_functions};
    use crate::vlir::{VInst, VItem, VOp};
    use patmos_isa::{AluOp, Guard, Pred};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn inst(op: VOp) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    fn analyze_items(items: &[VItem]) -> Liveness {
        let funcs = split_functions(items);
        let cfg = build_vcfg(&funcs[0], items);
        analyze(&funcs[0], &cfg)
    }

    #[test]
    fn straight_line_intervals() {
        let items = vec![
            VItem::FuncStart("f".into()),
            inst(VOp::LoadImmLow { rd: v(1), imm: 1 }), // 0: def v1
            inst(VOp::LoadImmLow { rd: v(2), imm: 2 }), // 1: def v2
            inst(VOp::AluR {
                op: AluOp::Add,
                rd: v(3),
                rs1: v(1),
                rs2: v(2),
            }), // 2
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(3),
            }), // 3
            inst(VOp::Halt),                            // 4
        ];
        let l = analyze_items(&items);
        let of = |id: u32| {
            l.intervals
                .iter()
                .find(|iv| iv.vreg == v(id))
                .copied()
                .unwrap()
        };
        assert_eq!((of(1).start, of(1).end), (0, 2));
        assert_eq!((of(2).start, of(2).end), (1, 2));
        assert_eq!((of(3).start, of(3).end), (2, 3));
    }

    #[test]
    fn loop_carried_value_spans_the_back_edge() {
        // v1 defined before the loop, updated inside, used after: its
        // interval must cover the whole loop body.
        let items = vec![
            VItem::FuncStart("f".into()),
            inst(VOp::LoadImmLow { rd: v(1), imm: 5 }), // 0
            VItem::Label("f_head".into()),
            inst(VOp::AluI {
                op: AluOp::Sub,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            }), // 1
            inst(VOp::CmpI {
                op: patmos_isa::CmpOp::Neq,
                pd: Pred::P6,
                rs1: v(1),
                imm: 0,
            }), // 2
            VItem::Inst(VInst::new(
                Guard::when(Pred::P6),
                VOp::BrLabel("f_head".into()),
            )), // 3
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(1),
            }), // 4
            inst(VOp::Halt), // 5
        ];
        let l = analyze_items(&items);
        let iv = l.intervals.iter().find(|iv| iv.vreg == v(1)).unwrap();
        assert_eq!((iv.start, iv.end), (0, 4));
    }

    #[test]
    fn guarded_def_keeps_value_live() {
        // (p1) li v1 = 7 must treat v1 as used: the old value survives
        // when the guard is false.
        let items = vec![
            VItem::FuncStart("f".into()),
            inst(VOp::LoadImmLow { rd: v(1), imm: 0 }), // 0
            VItem::Inst(VInst::new(
                Guard::when(Pred::P1),
                VOp::LoadImmLow { rd: v(1), imm: 7 },
            )), // 1
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(1),
            }), // 2
            inst(VOp::Halt),                            // 3
        ];
        let l = analyze_items(&items);
        let iv = l.intervals.iter().find(|iv| iv.vreg == v(1)).unwrap();
        assert_eq!((iv.start, iv.end), (0, 2));
    }

    #[test]
    fn live_across_call_is_precise() {
        let items = vec![
            VItem::FuncStart("f".into()),
            inst(VOp::LoadImmLow { rd: v(1), imm: 1 }), // 0: live across
            inst(VOp::LoadImmLow { rd: v(2), imm: 2 }), // 1: dead at call
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R3,
                src: v(2),
            }), // 2
            inst(VOp::CallFunc("g".into())),            // 3
            inst(VOp::CopyFromPhys {
                dst: v(3),
                src: patmos_isa::Reg::R1,
            }), // 4
            inst(VOp::AluR {
                op: AluOp::Add,
                rd: v(4),
                rs1: v(1),
                rs2: v(3),
            }), // 5
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(4),
            }), // 6
            inst(VOp::Halt),                            // 7
        ];
        let l = analyze_items(&items);
        assert_eq!(l.live_across_calls, vec![vec![v(1)]]);
    }
}
