//! Property test: the list scheduler emits a legal schedule for any
//! straight-line block.
//!
//! Blocks of 1–160 random operations (ALU, compare, load, store,
//! `mul`/`mfs`, `lil`, any of them guarded) end in no terminator, a
//! call barrier, or a conditional or unconditional label branch. The
//! schedule must issue every operation exactly once, keep every
//! dependence gap at the final bundle positions, form only legal
//! bundles, and let every visible-delay residue end inside the block.

use proptest::prelude::*;

use patmos_isa::{AccessSize, AluOp, CmpOp, Guard, MemArea, Op, Pred, Reg, SpecialReg};
use patmos_lir::plir::{LirInst, LirOp};
use patmos_sched::dag::{dependence_gap, out_gap};
use patmos_sched::list::schedule_block;

/// Few registers and predicates, so dependences are dense.
fn reg() -> impl Strategy<Value = Reg> {
    (1u8..9).prop_map(Reg::from_index)
}

fn pred() -> impl Strategy<Value = Pred> {
    (1u8..4).prop_map(Pred::from_index)
}

fn area() -> impl Strategy<Value = MemArea> {
    prop::sample::select(vec![MemArea::Static, MemArea::Stack, MemArea::Data])
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Op::AluR {
            op: AluOp::Add,
            rd,
            rs1,
            rs2
        }),
        (reg(), reg(), -8i16..8).prop_map(|(rd, rs1, imm)| Op::AluI {
            op: AluOp::Sub,
            rd,
            rs1,
            imm
        }),
        (pred(), reg(), reg()).prop_map(|(pd, rs1, rs2)| Op::Cmp {
            op: CmpOp::Lt,
            pd,
            rs1,
            rs2
        }),
        (pred(), reg(), -8i16..8).prop_map(|(pd, rs1, imm)| Op::CmpI {
            op: CmpOp::Eq,
            pd,
            rs1,
            imm
        }),
        (area(), reg(), reg(), 0i16..4).prop_map(|(area, rd, ra, offset)| Op::Load {
            area,
            size: AccessSize::Word,
            rd,
            ra,
            offset
        }),
        (area(), reg(), reg(), 0i16..4).prop_map(|(area, ra, rs, offset)| Op::Store {
            area,
            size: AccessSize::Word,
            ra,
            offset,
            rs
        }),
        (reg(), reg()).prop_map(|(rs1, rs2)| Op::Mul { rs1, rs2 }),
        reg().prop_map(|rd| Op::Mfs {
            rd,
            ss: SpecialReg::Sl
        }),
        (reg(), any::<u32>()).prop_map(|(rd, imm)| Op::LoadImm32 { rd, imm }),
    ]
}

fn inst() -> impl Strategy<Value = LirInst> {
    (op(), pred(), any::<bool>(), 0u8..4).prop_map(|(op, p, negate, guarded)| {
        // One op in four is guarded.
        let guard = if guarded == 0 {
            Guard { pred: p, negate }
        } else {
            Guard::ALWAYS
        };
        LirInst::new(guard, LirOp::Real(op))
    })
}

fn term() -> impl Strategy<Value = Option<LirInst>> {
    prop_oneof![
        Just(None),
        Just(Some(LirInst::always(LirOp::CallFunc("f".into())))),
        Just(Some(LirInst::always(LirOp::BrLabel("next".into())))),
        pred().prop_map(|p| Some(LirInst::new(
            Guard::unless(p),
            LirOp::BrLabel("exit".into())
        ))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn list_schedules_are_legal(
        body in prop::collection::vec(inst(), 1..=160),
        term in term(),
        dual_issue in any::<bool>(),
    ) {
        check(&body, term.as_ref(), dual_issue);
    }
}

fn check(body: &[LirInst], term: Option<&LirInst>, dual_issue: bool) {
    let s = schedule_block(body, term, dual_issue);
    let total = s.bundles.len();
    let is_nop = |i: &LirInst| matches!(i.op, LirOp::Real(Op::Nop));

    // Issue positions in bundle order; the generator never makes a
    // `nop`, so every other op is a body op or the terminator.
    let mut issued: Vec<(usize, &LirInst)> = Vec::new();
    for (p, (first, second)) in s.bundles.iter().enumerate() {
        let ops = [Some(first), second.as_ref()];
        issued.extend(
            ops.into_iter()
                .flatten()
                .filter(|i| !is_nop(i))
                .map(|i| (p, i)),
        );

        // Legal bundles: a long op or a flow op issues alone, the
        // second slot takes only slot-two ops, and no register or
        // predicate is written twice.
        if let Some(second) = second {
            let (a, b) = (&first.op, &second.op);
            let at = format!("bundle {p} of {:?}", s.bundles);
            assert!(!a.is_long() && !b.is_long(), "long op paired in {at}");
            assert!(
                !a.is_flow() && b.allowed_in_second_slot(),
                "bad pair in {at}"
            );
            assert!(
                a.def().is_none() || a.def() != b.def(),
                "double def in {at}"
            );
            assert!(
                a.pred_def().is_none() || a.pred_def() != b.pred_def(),
                "double predicate def in {at}"
            );
        }
    }

    // Every op exactly once: identical ops always depend on each other
    // (each writes a register, a predicate or the multiplier, or is
    // ordered memory), so the k-th copy in program order is the k-th
    // copy in issue order.
    assert_eq!(issued.len(), body.len() + term.is_some() as usize);
    let mut taken = vec![false; issued.len()];
    let mut pos = Vec::with_capacity(body.len());
    for inst in body {
        let k = (0..issued.len())
            .find(|&k| !taken[k] && issued[k].1 == inst)
            .unwrap_or_else(|| panic!("{} never issues", inst.render()));
        taken[k] = true;
        pos.push(issued[k].0);
    }
    if let Some(term) = term {
        let at = s.term_at.expect("a terminator is placed");
        assert_eq!(&s.bundles[at].0, term);
        assert!(s.bundles[at].1.is_none(), "the terminator issues alone");
        assert_eq!(s.delay_slots, term.op.delay_slots(term.guard));
        assert!(at + 1 + s.delay_slots as usize <= total, "delay slots fit");
        for (i, inst) in body.iter().enumerate() {
            if let Some(g) = dependence_gap(inst, term) {
                assert!(pos[i] + g as usize <= at, "{} too late", inst.render());
            }
            if !matches!(term.op, LirOp::BrLabel(_)) {
                assert!(pos[i] < at, "{} crosses a barrier", inst.render());
            }
        }
    }

    // Every dependence gap holds, and every residue ends in the block.
    for (i, a) in body.iter().enumerate() {
        for (j, b) in body.iter().enumerate().skip(i + 1) {
            if let Some(g) = dependence_gap(a, b) {
                assert!(
                    pos[j] >= pos[i] + g as usize,
                    "gap {g} from {} @{} to {} @{}",
                    a.render(),
                    pos[i],
                    b.render(),
                    pos[j]
                );
            }
        }
        assert!(
            pos[i] + out_gap(a) as usize <= total,
            "{} @{} leaves the block of {total} bundles early",
            a.render(),
            pos[i]
        );
    }
}

#[test]
fn empty_and_single_op_blocks_are_legal() {
    let alu = LirInst::always(LirOp::Real(Op::AluR {
        op: AluOp::Add,
        rd: Reg::from_index(3),
        rs1: Reg::from_index(4),
        rs2: Reg::from_index(5),
    }));
    for term in [None, Some(LirInst::always(LirOp::BrLabel("x".into())))] {
        check(&[], term.as_ref(), true);
        check(std::slice::from_ref(&alu), term.as_ref(), true);
    }
}
