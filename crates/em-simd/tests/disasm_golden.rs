//! Golden disassembly: one program containing every instruction form,
//! with its exact textual rendering pinned. The `occamy disasm` output
//! (and the pipeview trace labels) are built on these `Display` impls —
//! any accidental format change shows up here as a diff, not as silent
//! churn in user-facing tooling.

use std::sync::Arc;

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, PReg, ProgramBuilder, ScalarInst, VBinOp, VCmpOp, VReg,
    VUnOp, VectorInst, XReg,
};

#[test]
fn every_instruction_form_renders_stably() {
    let mut b = ProgramBuilder::new();
    let l = b.fresh_label("top");
    b.bind(l);

    let cases: Vec<(em_simd::Inst, &str)> = vec![
        // Scalar ALU.
        (ScalarInst::MovImm { dst: XReg::X0, imm: -7 }.into(), "mov x0, #-7"),
        (ScalarInst::Mov { dst: XReg::X1, src: XReg::X0 }.into(), "mov x1, x0"),
        (
            ScalarInst::Add { dst: XReg::X2, a: XReg::X1, b: Operand::Imm(4) }.into(),
            "add x2, x1, #4",
        ),
        (
            ScalarInst::Sub { dst: XReg::X2, a: XReg::X1, b: Operand::Reg(XReg::X0) }.into(),
            "sub x2, x1, x0",
        ),
        (
            ScalarInst::Mul { dst: XReg::X3, a: XReg::X2, b: Operand::Imm(3) }.into(),
            "mul x3, x2, #3",
        ),
        (
            ScalarInst::Div { dst: XReg::X3, a: XReg::X2, b: Operand::Imm(2) }.into(),
            "udiv x3, x2, #2",
        ),
        (
            ScalarInst::Rem { dst: XReg::X3, a: XReg::X2, b: Operand::Imm(5) }.into(),
            "urem x3, x2, #5",
        ),
        (ScalarInst::ShlImm { dst: XReg::X4, a: XReg::X3, shift: 2 }.into(), "lsl x4, x3, #2"),
        // Scalar FP.
        (ScalarInst::FmovImm { dst: XReg::X5, imm: 1.5 }.into(), "fmov x5, #1.5"),
        (ScalarInst::Fadd { dst: XReg::X5, a: XReg::X5, b: XReg::X4 }.into(), "fadd x5, x5, x4"),
        (ScalarInst::Fsub { dst: XReg::X5, a: XReg::X5, b: XReg::X4 }.into(), "fsub x5, x5, x4"),
        (ScalarInst::Fmul { dst: XReg::X5, a: XReg::X5, b: XReg::X4 }.into(), "fmul x5, x5, x4"),
        (ScalarInst::Fdiv { dst: XReg::X5, a: XReg::X5, b: XReg::X4 }.into(), "fdiv x5, x5, x4"),
        // Scalar memory.
        (
            ScalarInst::Ldr { dst: XReg::X6, base: XReg::X0, index: XReg::X1 }.into(),
            "ldr x6, [x0, x1, lsl #2]",
        ),
        (
            ScalarInst::Str { src: XReg::X6, base: XReg::X0, index: XReg::X1 }.into(),
            "str x6, [x0, x1, lsl #2]",
        ),
        // Branches.
        (ScalarInst::B { target: l }.into(), "b .L0"),
        (ScalarInst::Beq { a: XReg::X1, b: Operand::Imm(0), target: l }.into(), "beq x1, #0, .L0"),
        (ScalarInst::Bne { a: XReg::X1, b: Operand::Imm(1), target: l }.into(), "bne x1, #1, .L0"),
        (
            ScalarInst::Blt { a: XReg::X1, b: Operand::Reg(XReg::X2), target: l }.into(),
            "blt x1, x2, .L0",
        ),
        (ScalarInst::Bge { a: XReg::X1, b: Operand::Imm(8), target: l }.into(), "bge x1, #8, .L0"),
        // Vector compute.
        (
            VectorInst::Unary { op: VUnOp::Fsqrt, dst: VReg::Z1, src: VReg::Z0 }.into(),
            "fsqrt z1.s, z0.s",
        ),
        (
            VectorInst::Binary { op: VBinOp::Fadd, dst: VReg::Z2, a: VReg::Z0, b: VReg::Z1 }
                .into(),
            "fadd z2.s, z0.s, z1.s",
        ),
        (
            VectorInst::Fma { dst: VReg::Z2, a: VReg::Z0, b: VReg::Z1 }.into(),
            "fmla z2.s, z0.s, z1.s",
        ),
        (VectorInst::DupImm { dst: VReg::Z3, imm: 0.25 }.into(), "fdup z3.s, #0.25"),
        (VectorInst::Dup { dst: VReg::Z3, src: XReg::X5 }.into(), "dup z3.s, x5"),
        (VectorInst::ReduceAdd { dst: XReg::X7, src: VReg::Z3 }.into(), "faddv x7, z3.s"),
        // Vector memory.
        (
            VectorInst::Load { dst: VReg::Z4, base: XReg::X0, index: XReg::X1 }.into(),
            "ld1w z4.s, [x0, x1, lsl #2]",
        ),
        (
            VectorInst::Store { src: VReg::Z4, base: XReg::X0, index: XReg::X1 }.into(),
            "st1w z4.s, [x0, x1, lsl #2]",
        ),
        // Predication.
        (
            VectorInst::Whilelo { dst: PReg::P0, a: XReg::X1, b: XReg::X2 }.into(),
            "whilelo p0.s, x1, x2",
        ),
        (
            VectorInst::Fcm { op: VCmpOp::Gt, dst: PReg::P1, a: VReg::Z0, b: VReg::Z1 }.into(),
            "fcmgt p1.s, z0.s, z1.s",
        ),
        (
            VectorInst::Sel { dst: VReg::Z5, sel: PReg::P1, a: VReg::Z0, b: VReg::Z1 }.into(),
            "sel z5.s, p1, z0.s, z1.s",
        ),
        (
            VectorInst::Predicated {
                pred: PReg::P0,
                inst: Arc::new(VectorInst::Load { dst: VReg::Z6, base: XReg::X0, index: XReg::X1 }),
            }
            .into(),
            "ld1w z6.s, [x0, x1, lsl #2] [p0/m]",
        ),
        // EM-SIMD dedicated-register moves (Table 1).
        (
            EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Imm(42) }.into(),
            "msr <OI>, #42",
        ),
        (
            EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Reg(XReg::X16) }.into(),
            "msr <VL>, x16",
        ),
        (EmSimdInst::Mrs { dst: XReg::X15, reg: DedicatedReg::Status }.into(), "mrs x15, <status>"),
        (EmSimdInst::Mrs { dst: XReg::X16, reg: DedicatedReg::Decision }.into(), "mrs x16, <decision>"),
        (EmSimdInst::Mrs { dst: XReg::X17, reg: DedicatedReg::Al }.into(), "mrs x17, <AL>"),
    ];

    for (inst, want) in &cases {
        assert_eq!(&inst.to_string(), want);
    }

    // And the full program listing carries the label and per-line
    // numbering the CLI shows.
    for (inst, _) in cases {
        match inst {
            em_simd::Inst::Scalar(i) => {
                b.scalar(i);
            }
            em_simd::Inst::Vector(i) => {
                b.vector(i);
            }
            em_simd::Inst::EmSimd(i) => {
                b.em_simd(i);
            }
            em_simd::Inst::Halt => {}
        }
    }
    b.halt();
    let text = b.build().disassemble();
    assert!(text.contains(".L0: ; top"), "{text}");
    assert!(text.contains("halt"), "{text}");
    assert!(text.lines().count() > 35, "{text}");
}
