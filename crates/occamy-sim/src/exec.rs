//! Pure functional semantics of vector compute operations.
//!
//! Every lane-wise operation writes into a caller-provided destination
//! slice, so executing an instruction allocates nothing: the timing model
//! and the functional engine both run [`compute`] into a reusable buffer
//! and copy the result into the destination register's lanes.

use em_simd::{VBinOp, VCmpOp, VUnOp, VectorInst, XReg};
use mem_sim::Memory;

/// Applies `f` lane-wise from `src` into `out`.
fn map1(src: &[f32], out: &mut [f32], f: impl Fn(f32) -> f32) {
    assert_eq!(src.len(), out.len(), "vector width mismatch");
    for (o, &x) in out.iter_mut().zip(src) {
        *o = f(x);
    }
}

/// Applies `f` lane-wise from `a` and `b` into `out`.
fn map2(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert!(a.len() == b.len() && a.len() == out.len(), "vector width mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// Applies a unary lane-wise operation.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn unary(op: VUnOp, src: &[f32], out: &mut [f32]) {
    match op {
        VUnOp::Fneg => map1(src, out, |x| -x),
        VUnOp::Fabs => map1(src, out, f32::abs),
        VUnOp::Fsqrt => map1(src, out, f32::sqrt),
    }
}

/// Applies a binary lane-wise operation.
///
/// # Panics
///
/// Panics if the operand widths differ (a renamer invariant violation).
pub fn binary(op: VBinOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    match op {
        VBinOp::Fadd => map2(a, b, out, |x, y| x + y),
        VBinOp::Fsub => map2(a, b, out, |x, y| x - y),
        VBinOp::Fmul => map2(a, b, out, |x, y| x * y),
        VBinOp::Fdiv => map2(a, b, out, |x, y| x / y),
        VBinOp::Fmax => map2(a, b, out, f32::max),
        VBinOp::Fmin => map2(a, b, out, f32::min),
    }
}

/// Fused multiply-add: `acc[i] + a[i] * b[i]` per lane.
///
/// # Panics
///
/// Panics if the operand widths differ.
pub fn fma(acc: &[f32], a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        acc.len() == a.len() && a.len() == b.len() && b.len() == out.len(),
        "vector width mismatch"
    );
    for (((o, &c), &x), &y) in out.iter_mut().zip(acc).zip(a).zip(b) {
        *o = x.mul_add(y, c);
    }
}

/// Horizontal sum over all lanes (SVE `FADDV` semantics: strict
/// left-to-right order, so results are deterministic for any lane count).
pub fn reduce_add(src: &[f32]) -> f32 {
    src.iter().fold(0.0, |acc, &x| acc + x)
}

/// Lane select: `out[i] = mask[i] ? a[i] : b[i]`.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn select(mask: &[f32], a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(
        mask.len() == a.len() && a.len() == b.len() && b.len() == out.len(),
        "vector width mismatch"
    );
    for (((o, &m), &x), &y) in out.iter_mut().zip(mask).zip(a).zip(b) {
        *o = if m != 0.0 { x } else { y };
    }
}

/// Merging predication in place: inactive lanes of `out` take `old`'s.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn merge(mask: &[f32], old: &[f32], out: &mut [f32]) {
    assert!(mask.len() == old.len() && old.len() == out.len(), "vector width mismatch");
    for ((o, &m), &prev) in out.iter_mut().zip(mask).zip(old) {
        if m == 0.0 {
            *o = prev;
        }
    }
}

/// Predicated horizontal sum: only active lanes contribute.
///
/// # Panics
///
/// Panics if the widths differ.
pub fn reduce_add_masked(mask: &[f32], src: &[f32]) -> f32 {
    assert_eq!(mask.len(), src.len(), "vector width mismatch");
    mask.iter().zip(src).fold(0.0, |acc, (&m, &x)| if m != 0.0 { acc + x } else { acc })
}

/// The WHILELO predicate: lane `i` is active iff `a + i < b`
/// (represented as 1.0/0.0 per lane).
pub fn whilelo(a: u64, b: u64, out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        *o = if (a + i as u64) < b { 1.0 } else { 0.0 };
    }
}

/// Lane-wise comparison producing a predicate mask (SVE `FCMxx`).
///
/// # Panics
///
/// Panics if the widths differ.
pub fn compare(op: VCmpOp, a: &[f32], b: &[f32], out: &mut [f32]) {
    map2(a, b, out, |x, y| if op.eval(x, y) { 1.0 } else { 0.0 });
}

/// Bytes a vector access at `bytes` bytes really touches: predicated
/// accesses only touch active lanes (SVE fault suppression), so the span
/// ends at the last active lane.
pub(crate) fn access_span(mask: Option<&[f32]>, bytes: u64) -> u64 {
    match mask {
        Some(m) => m.iter().rposition(|&a| a != 0.0).map_or(0, |i| (i as u64 + 1) * 4),
        None => bytes,
    }
}

/// A vector load of `lanes` lanes from `addr` into `out`. Predicated
/// loads are zeroing (SVE `LD1`) and read only active lanes, one per
/// mask lane.
pub(crate) fn load(
    mem: &Memory,
    addr: u64,
    lanes: usize,
    mask: Option<&[f32]>,
    out: &mut Vec<f32>,
) {
    out.clear();
    match mask {
        Some(m) => out.extend(m.iter().enumerate().map(|(i, &active)| {
            if active != 0.0 {
                mem.read_f32(addr + 4 * i as u64)
            } else {
                0.0
            }
        })),
        None => out.extend((0..lanes).map(|i| mem.read_f32(addr + 4 * i as u64))),
    }
}

/// A vector store of `value` to `addr`; a predicated store writes only
/// active lanes.
pub(crate) fn store(mem: &mut Memory, addr: u64, value: &[f32], mask: Option<&[f32]>) {
    match mask {
        Some(m) => {
            for (i, (&active, &v)) in m.iter().zip(value).enumerate() {
                if active != 0.0 {
                    mem.write_f32(addr + 4 * i as u64, v);
                }
            }
        }
        None => mem.write_f32_slice(addr, value),
    }
}

/// The register values one compute instruction reads.
pub(crate) struct Operands<'a> {
    /// Vector sources in [`VectorInst::vector_srcs`] order (unused
    /// entries are empty).
    pub srcs: [&'a [f32]; 3],
    /// Governing predicate, if predicated.
    pub mask: Option<&'a [f32]>,
    /// `Sel`'s selector predicate.
    pub sel: Option<&'a [f32]>,
    /// The destination's prior value, for merging predication.
    pub old: Option<&'a [f32]>,
}

/// Executes compute instruction `inst` at `lanes` lanes into `out`
/// (resized to the result width; emptied for reductions, whose result is
/// the returned scalar writeback). `aux` is the scalar payload captured at
/// transmit: the broadcast value's bits for `Dup`, the `Whilelo` bounds
/// packed as two `u32`s.
///
/// # Panics
///
/// Panics if operand widths differ (a renamer invariant violation).
pub(crate) fn compute(
    inst: &VectorInst,
    ops: &Operands<'_>,
    aux: Option<u64>,
    lanes: usize,
    out: &mut Vec<f32>,
) -> Option<(XReg, f32)> {
    let [s0, s1, s2] = ops.srcs;
    let width = match inst.inner() {
        VectorInst::Unary { .. }
        | VectorInst::Binary { .. }
        | VectorInst::Fma { .. }
        | VectorInst::Fcm { .. }
        | VectorInst::Sel { .. } => s0.len(),
        VectorInst::ReduceAdd { .. } => 0,
        _ => lanes,
    };
    out.clear();
    out.resize(width, 0.0);
    let mut scalar_wb = None;
    match inst.inner() {
        VectorInst::Unary { op, .. } => unary(*op, s0, out),
        VectorInst::Binary { op, .. } => binary(*op, s0, s1, out),
        VectorInst::Fma { .. } => fma(s0, s1, s2, out),
        VectorInst::DupImm { imm, .. } => out.fill(*imm),
        VectorInst::Dup { .. } => out.fill(f32::from_bits(aux.unwrap_or(0) as u32)),
        VectorInst::ReduceAdd { dst, .. } => {
            let sum = match ops.mask {
                Some(m) => reduce_add_masked(m, s0),
                None => reduce_add(s0),
            };
            scalar_wb = Some((*dst, sum));
        }
        VectorInst::Whilelo { .. } => {
            debug_assert!(aux.is_some(), "whilelo bounds captured at transmit");
            let bounds = aux.unwrap_or(0);
            whilelo(bounds >> 32, bounds & 0xffff_ffff, out);
        }
        VectorInst::Fcm { op, .. } => compare(*op, s0, s1, out),
        VectorInst::Sel { .. } => select(ops.sel.unwrap_or_default(), s0, s1, out),
        VectorInst::Load { .. } | VectorInst::Store { .. } | VectorInst::Predicated { .. } => {
            // Memory ops take the load/store path and inner() strips
            // predication; neither reaches here.
            debug_assert!(false, "non-compute instruction in the compute path");
        }
    }
    // Merging predication: inactive lanes keep the old destination.
    if let (Some(m), Some(old)) = (ops.mask, ops.old) {
        merge(m, old, out);
    }
    scalar_wb
}

#[cfg(test)]
mod tests {
    use super::*;

    fn un(op: VUnOp, src: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; src.len()];
        unary(op, src, &mut out);
        out
    }

    fn bin(op: VBinOp, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; a.len()];
        binary(op, a, b, &mut out);
        out
    }

    #[test]
    fn unary_ops() {
        assert_eq!(un(VUnOp::Fneg, &[1.0, -2.0]), vec![-1.0, 2.0]);
        assert_eq!(un(VUnOp::Fabs, &[-3.0, 4.0]), vec![3.0, 4.0]);
        assert_eq!(un(VUnOp::Fsqrt, &[9.0, 16.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn binary_ops() {
        assert_eq!(bin(VBinOp::Fadd, &[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(bin(VBinOp::Fsub, &[1.0, 2.0], &[3.0, 4.0]), vec![-2.0, -2.0]);
        assert_eq!(bin(VBinOp::Fmul, &[2.0, 3.0], &[4.0, 5.0]), vec![8.0, 15.0]);
        assert_eq!(bin(VBinOp::Fdiv, &[8.0, 9.0], &[2.0, 3.0]), vec![4.0, 3.0]);
        assert_eq!(bin(VBinOp::Fmax, &[1.0, 5.0], &[2.0, 3.0]), vec![2.0, 5.0]);
        assert_eq!(bin(VBinOp::Fmin, &[1.0, 5.0], &[2.0, 3.0]), vec![1.0, 3.0]);
    }

    #[test]
    fn fma_is_fused() {
        let mut out = [0.0];
        fma(&[1.0], &[2.0], &[3.0], &mut out);
        assert_eq!(out, [7.0]);
    }

    #[test]
    fn reduce_is_left_to_right() {
        assert_eq!(reduce_add(&[1.0, 2.0, 3.0, 4.0]), 10.0);
        assert_eq!(reduce_add(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let _ = bin(VBinOp::Fadd, &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn select_and_merge_by_mask() {
        let mut out = [0.0; 3];
        select(&[1.0, 0.0, 1.0], &[9.0, 9.0, 9.0], &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, [9.0, 2.0, 9.0]);
        let mut out = [9.0; 3];
        merge(&[1.0, 0.0, 1.0], &[1.0, 2.0, 3.0], &mut out);
        assert_eq!(out, [9.0, 2.0, 9.0]);
    }

    #[test]
    fn masked_reduce_skips_inactive() {
        assert_eq!(reduce_add_masked(&[1.0, 0.0, 1.0], &[5.0, 100.0, 7.0]), 12.0);
    }

    #[test]
    fn compare_produces_masks() {
        let mut m = [0.0; 3];
        compare(VCmpOp::Gt, &[1.0, 5.0, 3.0], &[2.0, 2.0, 3.0], &mut m);
        assert_eq!(m, [0.0, 1.0, 0.0]);
        compare(VCmpOp::Le, &[1.0, 5.0, 3.0], &[2.0, 2.0, 3.0], &mut m);
        assert_eq!(m, [1.0, 0.0, 1.0]);
    }

    #[test]
    fn whilelo_counts_remaining() {
        let mut m = [0.0; 4];
        whilelo(6, 8, &mut m);
        assert_eq!(m, [1.0, 1.0, 0.0, 0.0]);
        whilelo(8, 8, &mut m);
        assert_eq!(m, [0.0; 4]);
        whilelo(0, 100, &mut m);
        assert_eq!(m, [1.0; 4]);
    }

    #[test]
    fn compute_merges_predicated_results() {
        let inst = VectorInst::Binary {
            op: VBinOp::Fadd,
            dst: em_simd::VReg::Z0,
            a: em_simd::VReg::Z1,
            b: em_simd::VReg::Z2,
        }
        .predicated(em_simd::PReg::P0);
        let ops = Operands {
            srcs: [&[1.0, 2.0], &[10.0, 20.0], &[]],
            mask: Some(&[0.0, 1.0]),
            sel: None,
            old: Some(&[-1.0, -2.0]),
        };
        let mut out = Vec::new();
        assert_eq!(compute(&inst, &ops, None, 2, &mut out), None);
        assert_eq!(out, vec![-1.0, 22.0]);
    }
}
