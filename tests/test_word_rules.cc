// Soundness of the encoder's word-level rules (verify/encoder.cc,
// TermDag) and of its demanded widths. Every rule there is a
// bit-vector identity, so each is checked three ways (demanded widths
// the first way only):
//
//  - Exhaustive agreement: each rule shape (and near misses that must
//    not match) is encoded symbolically, over fresh argument variables
//    so that every rule fires (constant inputs would fold first), at
//    i1-i8 with at most 16 input bits. Each input is then fixed by
//    unit clauses, and the model's value, poison and UB must equal
//    ExecPlan's for every input.
//  - Firing: at i64 each shape and its canonical form meet in the same
//    nodes, so their refinement query is Unsat with zero conflicts.
//  - Identity proofs at i64: each identity, as a miter built directly
//    from CircuitBuilder primitives, is Unsat. No rule takes part, so
//    no rule discharges its own proof. Products and division by a
//    variable are the exception: their i64 miters are beyond the
//    solver, so those rules rest on the exhaustive sweep, and near
//    misses that differ only in flags or UB must stay refuted
//    (WordRuleDecision). Division by a constant power of two is proved
//    at i64 like the rest.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>

#include "corpus/benchmarks.h"
#include "interp/exec_plan.h"
#include "ir/parser.h"
#include "smt/bitblast.h"
#include "smt/sat.h"
#include "verify/encoder.h"
#include "verify/refine.h"

using namespace lpo;
using namespace lpo::verify;
using smt::BitVec;
using smt::CircuitBuilder;
using smt::CLit;

namespace {

/** @p shape with every "T" replaced by "i<width>". */
std::string
atWidth(const std::string &shape, unsigned width)
{
    std::string out;
    const std::string type = "i" + std::to_string(width);
    for (char c : shape) {
        if (c == 'T')
            out += type;
        else
            out += c;
    }
    return out;
}

std::unique_ptr<ir::Function>
parse(ir::Context &ctx, const std::string &text)
{
    auto r = ir::parseFunction(ctx, text);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().toString()) << "\n"
                        << text;
    return r.ok() ? r.take() : nullptr;
}

struct Shape
{
    const char *name;
    unsigned args;
    const char *body;        ///< function text over T
    unsigned min_width = 1;  ///< narrowest T the body is valid at
};

// Two-argument shapes are "f(T %a, T %b)", three-argument shapes add
// "T %c". Near misses (marked) look like a rule but must not match.
const Shape kShapes[] = {
    {"umin_idempotent", 2,
     "  %m = call T @llvm.umin.T(T %a, T %b)\n"
     "  %r = call T @llvm.umin.T(T %m, T %a)\n"},
    {"umax_idempotent", 2,
     "  %m = call T @llvm.umax.T(T %b, T %a)\n"
     "  %r = call T @llvm.umax.T(T %b, T %m)\n"},
    {"smin_idempotent", 2,
     "  %m = call T @llvm.smin.T(T %a, T %b)\n"
     "  %r = call T @llvm.smin.T(T %m, T %b)\n"},
    {"smax_idempotent", 2,
     "  %m = call T @llvm.smax.T(T %a, T %b)\n"
     "  %r = call T @llvm.smax.T(T %a, T %m)\n"},
    // Near miss: a third operand is no absorption.
    {"umin_three_operands", 3,
     "  %m = call T @llvm.umin.T(T %a, T %b)\n"
     "  %r = call T @llvm.umin.T(T %m, T %c)\n"},
    {"umax_reassociated", 3,
     "  %m = call T @llvm.umax.T(T %b, T %c)\n"
     "  %n = call T @llvm.umax.T(T %a, T %m)\n"
     "  %r = call T @llvm.umax.T(T %n, T %c)\n"},
    {"umin_absorbs_umax", 2,
     "  %m = call T @llvm.umax.T(T %a, T %b)\n"
     "  %r = call T @llvm.umin.T(T %m, T %a)\n"},
    {"umax_absorbs_umin", 2,
     "  %m = call T @llvm.umin.T(T %b, T %a)\n"
     "  %r = call T @llvm.umax.T(T %b, T %m)\n"},
    {"smin_absorbs_smax", 2,
     "  %m = call T @llvm.smax.T(T %a, T %b)\n"
     "  %r = call T @llvm.smin.T(T %a, T %m)\n"},
    {"smax_absorbs_smin", 2,
     "  %m = call T @llvm.smin.T(T %a, T %b)\n"
     "  %r = call T @llvm.smax.T(T %m, T %b)\n"},
    // An and is never above its operand, an or never below it.
    {"umin_of_and_operand", 2,
     "  %x = and T %a, %b\n"
     "  %r = call T @llvm.umin.T(T %a, T %x)\n"},
    {"umax_of_or_operand", 2,
     "  %x = or T %b, %a\n"
     "  %r = call T @llvm.umax.T(T %x, T %a)\n"},
    {"umin_of_low_mask", 2,
     "  %x = and T %a, 3\n"
     "  %r = call T @llvm.umin.T(T %x, T %a)\n", 2},
    {"umin_of_and_operand_chain", 3,
     "  %x = and T %a, %b\n"
     "  %m = call T @llvm.umin.T(T %c, T %a)\n"
     "  %r = call T @llvm.umin.T(T %x, T %m)\n"},
    // Near misses: a signed min may pick the operand (x & y is negative
    // where x is not), and a max of the and is the operand, not it.
    {"smin_of_and_operand_near_miss", 2,
     "  %x = and T %a, %b\n"
     "  %r = call T @llvm.smin.T(T %a, T %x)\n"},
    {"umax_of_and_operand_near_miss", 2,
     "  %x = and T %a, %b\n"
     "  %r = call T @llvm.umax.T(T %a, T %x)\n"},
    // Near miss: the dual's operands are not in the set.
    {"umin_of_foreign_umax", 3,
     "  %m = call T @llvm.umax.T(T %b, T %c)\n"
     "  %r = call T @llvm.umin.T(T %a, T %m)\n"},
    {"select_ugt_is_umax", 2,
     "  %c = icmp ugt T %a, %b\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"select_uge_is_umin", 2,
     "  %c = icmp uge T %a, %b\n"
     "  %r = select i1 %c, T %b, T %a\n"},
    {"select_ule_is_umin", 2,
     "  %c = icmp ule T %a, %b\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"select_slt_is_smin", 2,
     "  %c = icmp slt T %a, %b\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"select_sge_is_smax", 2,
     "  %c = icmp sge T %a, %b\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"select_sgt_is_smin", 2,
     "  %c = icmp sgt T %a, %b\n"
     "  %r = select i1 %c, T %b, T %a\n"},
    {"select_min_then_umin", 2,
     "  %c = icmp ult T %b, %a\n"
     "  %s = select i1 %c, T %b, T %a\n"
     "  %r = call T @llvm.umin.T(T %s, T %a)\n"},
    {"usub_sat_intrinsic", 2,
     "  %r = call T @llvm.usub.sat.T(T %a, T %b)\n"},
    {"usub_sat_from_umax", 2,
     "  %m = call T @llvm.umax.T(T %a, T %b)\n"
     "  %r = sub T %m, %b\n"},
    {"usub_sat_from_umin", 2,
     "  %m = call T @llvm.umin.T(T %b, T %a)\n"
     "  %r = sub T %b, %m\n"},
    {"usub_sat_from_umax_nuw", 2,
     "  %m = call T @llvm.umax.T(T %a, T %b)\n"
     "  %r = sub nuw T %m, %a\n"},
    {"usub_sat_select_ugt", 2,
     "  %c = icmp ugt T %a, %b\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %c, T %d, T 0\n"},
    {"usub_sat_select_uge", 2,
     "  %c = icmp uge T %a, %b\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %c, T %d, T 0\n"},
    {"usub_sat_select_ult", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %c, T 0, T %d\n"},
    {"usub_sat_select_nsw", 2,
     "  %c = icmp ugt T %a, %b\n"
     "  %d = sub nsw T %a, %b\n"
     "  %r = select i1 %c, T %d, T 0\n"},
    // Near misses: the comparison faces the wrong way.
    {"sub_select_ult_near_miss", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %c, T %d, T 0\n"},
    {"sub_select_ugt_swapped_near_miss", 2,
     "  %c = icmp ugt T %a, %b\n"
     "  %d = sub T %b, %a\n"
     "  %r = select i1 %c, T %d, T 0\n"},
    {"usub_sat_select_chain", 3,
     "  %x = add T %a, %c\n"
     "  %y = add T %b, %c\n"
     "  %g = icmp ugt T %x, %y\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %g, T %d, T 0\n"},
    {"uadd_sat_intrinsic", 2,
     "  %r = call T @llvm.uadd.sat.T(T %b, T %a)\n"},
    {"uadd_sat_select_ult", 2,
     "  %s = add T %a, %b\n"
     "  %c = icmp ult T %s, %a\n"
     "  %r = select i1 %c, T -1, T %s\n"},
    {"uadd_sat_select_ugt", 2,
     "  %s = add T %a, %b\n"
     "  %c = icmp ugt T %b, %s\n"
     "  %r = select i1 %c, T -1, T %s\n"},
    {"uadd_sat_select_uge", 2,
     "  %s = add T %b, %a\n"
     "  %c = icmp uge T %s, %a\n"
     "  %r = select i1 %c, T %s, T -1\n"},
    {"uadd_sat_select_nuw", 2,
     "  %s = add nuw T %a, %b\n"
     "  %c = icmp ult T %s, %a\n"
     "  %r = select i1 %c, T -1, T %s\n"},
    {"uadd_sat_select_chain", 3,
     "  %s = add T %a, %b\n"
     "  %t = add T %s, %c\n"
     "  %g = icmp ult T %t, %s\n"
     "  %r = select i1 %g, T -1, T %t\n"},
    // Near misses: ule is not overflow; a sum compared against a
    // non-addend is not overflow.
    {"uadd_select_ule_near_miss", 2,
     "  %s = add T %a, %b\n"
     "  %c = icmp ule T %s, %a\n"
     "  %r = select i1 %c, T -1, T %s\n"},
    {"uadd_select_foreign_near_miss", 3,
     "  %s = add T %a, %b\n"
     "  %g = icmp ult T %s, %c\n"
     "  %r = select i1 %g, T -1, T %s\n"},
    {"mul_constants_fold", 2,
     "  %m = mul T %a, 3\n"
     "  %n = mul T 7, %m\n"
     "  %r = xor T %n, %b\n"},
    {"mul_constants_fold_flags", 2,
     "  %m = mul nuw T %a, 3\n"
     "  %n = mul nsw T %m, 3\n"
     "  %r = xor T %n, %b\n"},
    {"mul_variable_factor", 2,
     "  %c = and T %b, 1\n"
     "  %m = mul T %a, 3\n"
     "  %r = mul T %m, %c\n"},
    {"mul_reassociated", 3,
     "  %m = mul T %a, %b\n"
     "  %n = mul T %c, %m\n"
     "  %r = mul T %n, %a\n"},
    {"mul_square_times_constant", 2,
     "  %m = mul T %a, 6\n"
     "  %n = mul T %a, %m\n"
     "  %r = xor T %n, %b\n"},
    {"mul_factor_times_scaled", 2,
     "  %m = mul T %b, 5\n"
     "  %n = mul T %a, %m\n"
     "  %r = mul T %n, 3\n"},
    // The flags of a reassociated product stay with its own operands.
    {"mul_reassociated_flags", 3,
     "  %m = mul nsw T %a, %b\n"
     "  %r = mul nuw T %c, %m\n"},
    {"mul_reassociated_nsw", 3,
     "  %m = mul T %a, %b\n"
     "  %r = mul nsw T %m, %c\n"},
    {"udiv_self", 2,
     "  %q = udiv T %a, %a\n"
     "  %r = add T %q, %b\n"},
    {"udiv_exact_self", 2,
     "  %q = udiv exact T %b, %b\n"
     "  %r = xor T %q, %a\n"},
    {"sdiv_self", 2,
     "  %q = sdiv T %a, %a\n"
     "  %r = add T %q, %b\n"},
    {"sdiv_exact_self", 2,
     "  %r = sdiv exact T %b, %b\n"},
    {"urem_self", 2,
     "  %q = urem T %b, %b\n"
     "  %r = add T %q, %a\n"},
    {"srem_self", 2,
     "  %q = srem T %a, %a\n"
     "  %r = sub T %b, %q\n"},
    {"srem_self_twice", 2,
     "  %s = srem T %a, %a\n"
     "  %r = srem T %s, %a\n"},
    // A poison divisor is UB before the rule's value is read.
    {"udiv_self_poison_divisor", 2,
     "  %p = add nuw T %a, %b\n"
     "  %r = udiv T %p, %p\n"},
    {"sdiv_self_poison_divisor", 2,
     "  %p = add nsw T %a, %b\n"
     "  %r = sdiv T %p, %p\n"},
    {"udiv_zero_dividend", 2,
     "  %q = udiv T 0, %a\n"
     "  %r = add T %q, %b\n"},
    {"sdiv_zero_dividend", 2,
     "  %r = sdiv T 0, %b\n"},
    {"urem_zero_dividend", 2,
     "  %r = urem T 0, %a\n"},
    {"srem_zero_dividend", 2,
     "  %q = srem T 0, %b\n"
     "  %r = xor T %q, %a\n"},
    {"umax_zero_is_identity", 2,
     "  %m = call T @llvm.umax.T(T %a, T 0)\n"
     "  %r = sub T %m, %a\n"},
    {"umin_zero_absorbs", 2,
     "  %m = call T @llvm.umin.T(T 0, T %a)\n"
     "  %r = add T %m, %b\n"},
    {"umin_ones_is_identity", 2,
     "  %m = call T @llvm.umin.T(T %a, T -1)\n"
     "  %r = call T @llvm.umax.T(T %m, T %b)\n"},
    {"umax_ones_absorbs", 2,
     "  %r = call T @llvm.umax.T(T -1, T %b)\n"},
    {"add_and_or_is_add", 2,
     "  %x = and T %a, %b\n"
     "  %y = or T %b, %a\n"
     "  %r = add T %x, %y\n"},
    {"sub_and_or_is_sub", 3,
     "  %x = and T %a, %b\n"
     "  %y = or T %a, %b\n"
     "  %s = add T %x, %y\n"
     "  %r = sub T %c, %s\n"},
    // Near miss: and minus or is no sum (it is -(a ^ b)).
    {"and_minus_or_near_miss", 2,
     "  %x = and T %a, %b\n"
     "  %y = or T %a, %b\n"
     "  %r = sub T %x, %y\n"},
    {"or_minus_and_is_xor", 2,
     "  %x = or T %b, %a\n"
     "  %y = and T %a, %b\n"
     "  %r = sub T %x, %y\n"},
    {"or_minus_and_in_chain", 3,
     "  %x = or T %a, %b\n"
     "  %y = and T %b, %a\n"
     "  %s = sub T %c, %y\n"
     "  %r = add T %s, %x\n"},
    // Near miss: the and and the or share one operand only.
    {"or_minus_other_and_near_miss", 3,
     "  %x = or T %a, %b\n"
     "  %y = and T %a, %c\n"
     "  %r = sub T %x, %y\n"},
    {"lshr_eq_zero_is_ult", 2,
     "  %s = lshr T %a, 1\n"
     "  %c = icmp eq T %s, 0\n"
     "  %r = select i1 %c, T %a, T %b\n", 2},
    {"lshr_ne_zero_is_uge", 2,
     "  %s = lshr exact T %b, 1\n"
     "  %c = icmp ne T 0, %s\n"
     "  %r = select i1 %c, T %a, T %b\n", 2},
    {"low_mask_is_truncation", 2,
     "  %m = and T %a, 3\n"
     "  %r = xor T %m, %b\n"},
    {"umin_zext_constant", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %z = zext i1 %c to T\n"
     "  %m = call T @llvm.umin.T(T %z, T 1)\n"
     "  %r = add T %m, %b\n", 2},
    {"umax_zext_constant", 2,
     "  %c = icmp slt T %a, %b\n"
     "  %z = zext i1 %c to T\n"
     "  %r = call T @llvm.umax.T(T 3, T %z)\n", 2},
    // Near miss: a constant inside the extension's range.
    {"umin_zext_small_constant_near_miss", 2,
     "  %t = trunc T %a to i1\n"
     "  %z = zext i1 %t to T\n"
     "  %r = call T @llvm.umin.T(T %z, T 0)\n", 2},
    {"or_of_zexts", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %d = icmp eq T %a, %b\n"
     "  %x = zext i1 %c to T\n"
     "  %y = zext i1 %d to T\n"
     "  %r = or T %x, %y\n", 2},
    {"and_of_zexts", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %d = icmp ne T %a, 0\n"
     "  %x = zext i1 %c to T\n"
     "  %y = zext i1 %d to T\n"
     "  %r = and T %y, %x\n", 2},
    {"zext_eq_constant", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %x = zext i1 %c to T\n"
     "  %e = icmp eq T %x, 1\n"
     "  %r = select i1 %e, T %a, T %b\n", 2},
    {"zext_eq_wide_constant", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %x = zext i1 %c to T\n"
     "  %e = icmp eq T 2, %x\n"
     "  %r = select i1 %e, T %a, T %b\n", 2},
    {"eq_of_zexts", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %d = icmp sgt T %a, %b\n"
     "  %x = zext i1 %c to T\n"
     "  %y = zext i1 %d to T\n"
     "  %e = icmp eq T %x, %y\n"
     "  %r = select i1 %e, T %a, T %b\n", 2},
    {"low_bit_test_is_truncation", 2,
     "  %m = and T %a, 1\n"
     "  %e = icmp ne T %m, 0\n"
     "  %r = select i1 %e, T %a, T %b\n"},
    {"add_chain_cancels", 3,
     "  %s = add T %a, %b\n"
     "  %t = sub T %s, %c\n"
     "  %u = add T %c, %a\n"
     "  %r = sub T %t, %u\n"},
    {"add_chain_flags", 2,
     "  %s = add nuw T %a, %b\n"
     "  %r = sub nsw T %s, %b\n"},
    {"shl_one_is_double", 2,
     "  %s = shl T %a, 1\n"
     "  %t = sub T %s, %a\n"
     "  %r = sub T %t, %b\n"},
    {"xor_chain_cancels", 3,
     "  %s = xor T %a, %b\n"
     "  %t = xor T %c, %s\n"
     "  %r = xor T %t, %a\n"},
    {"xor_with_zero", 2,
     "  %s = xor T %a, 0\n"
     "  %t = xor T %s, %b\n"
     "  %r = xor T %t, %b\n"},
    {"abs_intrinsic", 2,
     "  %r = call T @llvm.abs.T(T %a, i1 false)\n"},
    {"abs_intrinsic_int_min_poison", 2,
     "  %r = call T @llvm.abs.T(T %b, i1 true)\n"},
    {"smax_negation_is_abs", 2,
     "  %n = sub T 0, %a\n"
     "  %r = call T @llvm.smax.T(T %a, T %n)\n"},
    {"smax_negation_first_is_abs", 2,
     "  %n = sub T 0, %a\n"
     "  %r = call T @llvm.smax.T(T %n, T %a)\n"},
    {"smax_negation_nsw_is_abs", 2,
     "  %n = sub nsw T 0, %a\n"
     "  %r = call T @llvm.smax.T(T %a, T %n)\n"},
    {"select_slt_zero_is_abs", 2,
     "  %c = icmp slt T %a, 0\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %n, T %a\n"},
    {"select_sle_zero_is_abs", 2,
     "  %c = icmp sle T %a, 0\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %n, T %a\n"},
    {"select_sgt_minus_one_is_abs", 2,
     "  %c = icmp sgt T %a, -1\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %a, T %n\n"},
    {"select_sgt_zero_is_abs", 2,
     "  %c = icmp sgt T %a, 0\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %a, T %n\n"},
    // Near misses: smin is the negated abs, the arms face the wrong
    // way, the bound is another value, the negation is of another
    // value.
    {"smin_negation_near_miss", 2,
     "  %n = sub T 0, %a\n"
     "  %r = call T @llvm.smin.T(T %a, T %n)\n"},
    {"select_slt_swapped_arms_near_miss", 2,
     "  %c = icmp slt T %a, 0\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %a, T %n\n"},
    {"select_slt_foreign_bound_near_miss", 2,
     "  %c = icmp slt T %a, %b\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %n, T %a\n"},
    {"smax_foreign_negation_near_miss", 2,
     "  %n = sub T 0, %b\n"
     "  %r = call T @llvm.smax.T(T %a, T %n)\n"},
    // Demanded width: operations whose uses read only low bits are
    // built at that width (DESIGN.md, "Word-level term layer").
    {"demand_square_parity", 2,
     "  %m = mul T %a, %a\n"
     "  %r = and T %m, 1\n"},
    {"demand_mask_through_chain", 2,
     "  %x = xor T %a, %b\n"
     "  %m = mul T %x, %b\n"
     "  %s = sub T %m, %a\n"
     "  %o = or T %s, %b\n"
     "  %r = and T %o, 3\n"},
    {"demand_select_arm", 2,
     "  %c = icmp ult T %a, %b\n"
     "  %m = mul T %a, %b\n"
     "  %s = select i1 %c, T %m, T %a\n"
     "  %r = and T 1, %s\n"},
    {"demand_trunc", 2,
     "  %m = mul T %a, %b\n"
     "  %t = trunc T %m to i1\n"
     "  %r = select i1 %t, T %a, T %b\n", 2},
    // Near misses: flags make poison read every operand bit; shifts,
    // compares and division read their operands in full; a high-bit
    // mask demands the high bits; a second use reads the full width.
    {"demand_mul_nsw_near_miss", 2,
     "  %m = mul nsw T %a, %b\n"
     "  %r = and T %m, 1\n"},
    {"demand_mul_nuw_near_miss", 2,
     "  %m = mul nuw T %a, %b\n"
     "  %r = and T %m, 1\n"},
    {"demand_add_nsw_near_miss", 2,
     "  %s = add nsw T %a, %b\n"
     "  %r = and T %s, 1\n"},
    {"demand_lshr_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %s = lshr T %m, 1\n"
     "  %r = and T %s, 1\n"},
    {"demand_ashr_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %s = ashr T %m, 1\n"
     "  %r = and T %s, 1\n"},
    {"demand_icmp_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %c = icmp ult T %m, %a\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"demand_udiv_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %q = udiv T %m, %b\n"
     "  %r = and T %q, 1\n"},
    {"demand_high_mask_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %r = and T %m, -2\n"},
    {"demand_second_use_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %l = and T %m, 1\n"
     "  %r = add T %l, %m\n"},
    {"demand_earlier_full_use_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %h = add T %m, %b\n"
     "  %l = and T %m, 1\n"
     "  %r = xor T %l, %h\n"},
    {"demand_trunc_nuw_near_miss", 2,
     "  %m = mul T %a, %b\n"
     "  %t = trunc nuw T %m to i1\n"
     "  %r = select i1 %t, T %a, T %b\n", 2},
    {"demand_trunc_nsw_near_miss", 2,
     "  %m = add T %a, %b\n"
     "  %t = trunc nsw T %m to i1\n"
     "  %r = select i1 %t, T %a, T %b\n", 2},
    // Division by a power of two. Swept over every width, the divisor
    // 4 is also 0 (i2, UB) and INT_MIN (i3, which no signed rule may
    // take for a shift), and 2 is INT_MIN at i2; 6 is no power of two.
    {"udiv_pow2", 2,
     "  %q = udiv T %a, 4\n"
     "  %r = add T %q, %b\n"},
    {"udiv_exact_pow2", 2,
     "  %r = udiv exact T %a, 4\n"},
    {"urem_pow2", 2,
     "  %r = urem T %a, 4\n"},
    {"sdiv_pow2", 2,
     "  %r = sdiv T %a, 4\n"},
    {"sdiv_exact_pow2", 2,
     "  %r = sdiv exact T %a, 2\n"},
    {"sdiv_exact_one", 2,
     "  %r = sdiv exact T %b, 1\n"},
    {"srem_pow2", 2,
     "  %r = srem T %a, 4\n"},
    {"srem_pow2_test", 2,
     "  %m = srem T %a, 2\n"
     "  %c = icmp ne T %m, 0\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"udiv_not_pow2_near_miss", 2,
     "  %r = udiv exact T %a, 6\n", 4},
    {"sdiv_not_pow2_near_miss", 2,
     "  %r = sdiv exact T %a, 6\n", 4},
    {"srem_not_pow2_near_miss", 2,
     "  %r = srem T %a, -6\n", 4},
    {"ashr_exact", 2,
     "  %r = ashr exact T %a, 2\n"},
    {"lshr_exact", 2,
     "  %r = lshr exact T %a, 1\n"},
    {"shl_nuw", 2,
     "  %r = shl nuw T %a, 2\n"},
    {"shl_nuw_one", 2,
     "  %r = shl nuw T %a, 1\n"},
    // Clamp selects: the constant arm moves under trunc, zext and a
    // min/max that maps it to itself.
    {"clamp_trunc_umin", 2,
     "  %c = icmp slt T %a, 0\n"
     "  %m = call T @llvm.umin.T(T %a, T 3)\n"
     "  %t = trunc nuw T %m to i2\n"
     "  %s = select i1 %c, i2 0, i2 %t\n"
     "  %r = zext i2 %s to T\n", 3},
    {"clamp_zext_trunc_umin", 2,
     "  %c = icmp slt T %a, 0\n"
     "  %m = call T @llvm.umin.T(T %a, T 3)\n"
     "  %t = trunc T %m to i2\n"
     "  %z = zext i2 %t to T\n"
     "  %r = select i1 %c, T 0, T %z\n", 3},
    {"clamp_smin", 2,
     "  %c = icmp sgt T %a, -1\n"
     "  %m = call T @llvm.smin.T(T %a, T 1)\n"
     "  %r = select i1 %c, T %m, T 0\n", 2},
    {"clamp_slt_one", 2,
     "  %c = icmp slt T %a, 1\n"
     "  %r = select i1 %c, T 0, T %a\n"},
    {"clamp_sle_zero_min", 2,
     "  %c = icmp sle T %a, 0\n"
     "  %r = select i1 %c, T %a, T 0\n"},
    {"clamp_sgt_zero_min", 2,
     "  %c = icmp sgt T %a, 0\n"
     "  %r = select i1 %c, T 0, T %a\n"},
    {"clamp_sge_zero", 2,
     "  %c = icmp sge T %a, 0\n"
     "  %r = select i1 %c, T %a, T 0\n"},
    {"clamp_trunc_nsw_umin", 2,
     "  %m = call T @llvm.umin.T(T %a, T 1)\n"
     "  %t = trunc nsw T %m to i2\n"
     "  %r = sext i2 %t to T\n", 3},
    // Near misses: umin(5, 3) is not 5; umin(a, 5) does not fit i2.
    {"clamp_arm_not_fixed_near_miss", 2,
     "  %c = icmp slt T %a, 0\n"
     "  %m = call T @llvm.umin.T(T %a, T 3)\n"
     "  %r = select i1 %c, T 5, T %m\n", 4},
    {"clamp_trunc_overflow_near_miss", 2,
     "  %m = call T @llvm.umin.T(T %a, T 5)\n"
     "  %t = trunc nuw T %m to i2\n"
     "  %r = zext i2 %t to T\n", 4},
    {"clamp_foreign_condition_near_miss", 2,
     "  %c = icmp slt T %b, 0\n"
     "  %m = call T @llvm.umin.T(T %a, T 3)\n"
     "  %t = trunc T %m to i2\n"
     "  %s = select i1 %c, i2 0, i2 %t\n"
     "  %r = zext i2 %s to T\n", 3},
    // Constant chains.
    {"umax_shl_chain", 2,
     "  %m = call T @llvm.umax.T(T %a, T 1)\n"
     "  %s = shl nuw T %m, 1\n"
     "  %r = call T @llvm.umax.T(T %s, T 3)\n", 3},
    {"umax_shl_chain_by_two", 2,
     "  %m = call T @llvm.umax.T(T 1, T %a)\n"
     "  %s = shl T %m, 2\n"
     "  %r = call T @llvm.umax.T(T 4, T %s)\n", 4},
    // Near misses: -2 << 1 wraps; 3 << 2 exceeds 4.
    {"umax_shl_wraps_near_miss", 2,
     "  %m = call T @llvm.umax.T(T %a, T -2)\n"
     "  %s = shl T %m, 1\n"
     "  %r = call T @llvm.umax.T(T %s, T 3)\n", 3},
    {"umax_shl_exceeds_near_miss", 2,
     "  %m = call T @llvm.umax.T(T %a, T 3)\n"
     "  %s = shl nuw T %m, 2\n"
     "  %r = call T @llvm.umax.T(T %s, T 4)\n", 5},
    {"uadd_sat_chain", 2,
     "  %s = call T @llvm.uadd.sat.T(T %a, T 2)\n"
     "  %r = call T @llvm.uadd.sat.T(T 1, T %s)\n", 3},
    {"uadd_sat_chain_saturates", 2,
     "  %s = call T @llvm.uadd.sat.T(T %a, T -2)\n"
     "  %r = call T @llvm.uadd.sat.T(T %s, T 3)\n", 3},
    {"usub_sat_chain", 2,
     "  %s = call T @llvm.usub.sat.T(T %a, T 2)\n"
     "  %r = call T @llvm.usub.sat.T(T %s, T 1)\n", 3},
    {"usub_sat_chain_overflows", 2,
     "  %s = call T @llvm.usub.sat.T(T %b, T -2)\n"
     "  %r = call T @llvm.usub.sat.T(T %s, T 3)\n", 3},
    {"umax_constant_below_bound", 2,
     "  %m = call T @llvm.umax.T(T %a, T 2)\n"
     "  %c = icmp ult T %m, 5\n"
     "  %r = select i1 %c, T %a, T %b\n", 4},
    {"umax_constant_above_bound", 2,
     "  %m = call T @llvm.umax.T(T %a, T 5)\n"
     "  %c = icmp ugt T 3, %m\n"
     "  %r = select i1 %c, T %a, T %b\n", 4},
    // Equality cancels a shared add leaf; or and and absorb.
    {"eq_cancels_leaf", 2,
     "  %s = add T %a, %b\n"
     "  %c = icmp eq T %s, %a\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"ne_cancels_negated_leaf", 2,
     "  %s = sub T %a, %b\n"
     "  %c = icmp ne T %a, %s\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"eq_two_leaves_near_miss", 2,
     "  %s = add T %a, %b\n"
     "  %t = add T %a, %a\n"
     "  %c = icmp eq T %s, %t\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    // Constants fold: chain leaves, min/max operands, shifts.
    {"chain_constants_fold", 2,
     "  %s = add T %a, 3\n"
     "  %t = sub T %s, 5\n"
     "  %r = add T %t, %b\n"},
    {"xor_constants_fold", 2,
     "  %s = xor T %a, 3\n"
     "  %r = xor T %s, 6\n"},
    {"min_max_constants_fold", 2,
     "  %m = call T @llvm.umin.T(T %a, T 5)\n"
     "  %n = call T @llvm.umin.T(T 3, T %m)\n"
     "  %s = call T @llvm.smax.T(T %b, T -2)\n"
     "  %t = call T @llvm.smax.T(T %s, T 1)\n"
     "  %r = add T %n, %t\n", 3},
    {"constant_shifts_fold", 2,
     "  %s = lshr T -1, 1\n"
     "  %t = ashr T -2, 1\n"
     "  %u = shl T 3, 1\n"
     "  %v = add T %s, %t\n"
     "  %w = xor T %u, %v\n"
     "  %r = and T %w, %a\n", 3},
    {"uadd_usub_sat_constants_fold", 2,
     "  %s = call T @llvm.uadd.sat.T(T 3, T -2)\n"
     "  %t = call T @llvm.usub.sat.T(T 2, T 3)\n"
     "  %u = call T @llvm.usub.sat.T(T 3, T 1)\n"
     "  %v = add T %s, %t\n"
     "  %w = add T %v, %u\n"
     "  %r = xor T %w, %a\n", 3},
    // A zero-extended word lies in [0, M].
    {"compare_zext_range", 2,
     "  %z = and T %a, 3\n"
     "  %c = icmp slt T %z, 0\n"
     "  %d = icmp ult T %z, 4\n"
     "  %e = icmp sgt T %z, -1\n"
     "  %f = and i1 %c, %d\n"
     "  %g = or i1 %f, %e\n"
     "  %r = select i1 %g, T %a, T %b\n", 4},
    {"compare_zext_range_near_miss", 2,
     "  %z = and T %a, 3\n"
     "  %c = icmp ult T %z, 3\n"
     "  %r = select i1 %c, T %a, T %b\n", 3},
    {"compare_bounds", 2,
     "  %c = icmp ult T %a, 0\n"
     "  %d = icmp sgt T %b, 2147483647\n"
     "  %e = or i1 %c, %d\n"
     "  %r = select i1 %e, T %a, T %b\n"},
    {"signed_min_max_of_zext", 2,
     "  %z = and T %a, 3\n"
     "  %m = call T @llvm.smax.T(T %z, T 0)\n"
     "  %n = call T @llvm.smin.T(T %z, T -1)\n"
     "  %r = add T %m, %n\n", 3},
    {"urem_pow2_demand", 2,
     "  %s = add T %a, %b\n"
     "  %r = urem T %s, 4\n"},
    // Predicates: a poison term implied by another folds into it.
    {"poisoned_exact_division", 2,
     "  %p = add nsw T %a, %b\n"
     "  %r = sdiv exact T %p, 2\n"},
    {"poisoned_clamp", 2,
     "  %p = add nuw T %a, %b\n"
     "  %c = icmp slt T %p, 0\n"
     "  %m = call T @llvm.umin.T(T %p, T 3)\n"
     "  %r = select i1 %c, T 0, T %m\n", 3},
    {"or_absorbs_and", 2,
     "  %n = and T %b, %a\n"
     "  %r = or T %n, %a\n"},
    {"and_absorbs_or", 2,
     "  %o = or T %a, %b\n"
     "  %r = and T %a, %o\n"},
};

std::string
shapeText(const Shape &shape, unsigned width)
{
    std::string params = shape.args == 2 ? "T %a, T %b" : "T %a, T %b, T %c";
    return atWidth("define T @f(" + params + ") {\n" + shape.body +
                       "  ret T %r\n}\n",
                   width);
}

/**
 * Every @p arity-argument shape at @p width, encoded over one set of
 * fresh argument variables in one circuit (each shape with its own
 * term table), checked against ExecPlan on every input. Sharing the
 * circuit shares the gates common to the shapes, so each input costs
 * one solve for all of them; the inputs are split across a few
 * threads.
 */
void
checkShapes(unsigned arity, unsigned width)
{
    struct Case
    {
        const char *name;
        std::unique_ptr<ir::Function> fn;
        EncodedFunction enc;
        std::unique_ptr<interp::ExecPlan> plan;
    };
    ir::Context ctx;
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    std::vector<ValueEnc> args;
    for (unsigned i = 0; i < arity; ++i)
        args.push_back({LaneEnc{cb.freshBV(width), CircuitBuilder::kFalse}});
    std::vector<Case> cases;
    for (const Shape &shape : kShapes) {
        if (shape.args != arity || width < shape.min_width)
            continue;
        Case c{shape.name, parse(ctx, shapeText(shape, width)), {}, {}};
        ASSERT_TRUE(c.fn && canEncode(*c.fn)) << shape.name;
        auto enc = encodeFunction(cb, *c.fn, &args);
        ASSERT_TRUE(enc.has_value()) << shape.name;
        c.enc = std::move(*enc);
        c.plan = std::make_unique<interp::ExecPlan>(
            interp::ExecPlan::compile(*c.fn));
        ASSERT_EQ(c.plan->inputBits(), arity * width);
        cases.push_back(std::move(c));
    }

    // Every case is read back from the model: emit all of them.
    cb.emit();
    const uint64_t inputs = uint64_t(1) << (arity * width);
    const unsigned threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::vector<std::string>> failures(threads);
    auto sweep = [&](unsigned t) {
        std::vector<interp::ExecFrame> frames;
        for (const Case &c : cases)
            frames.push_back(c.plan->makeFrame());
        // Assigning over one solver per thread reuses its storage, so
        // an input costs no allocation.
        smt::SatSolver fixed;
        for (uint64_t index = t; index < inputs && failures[t].size() < 8;
             index += threads) {
            // Fix the fresh argument variables by unit clauses, in the
            // bit order runExhaustive decodes.
            fixed = sat;
            uint64_t rest = index;
            for (const ValueEnc &arg : args) {
                for (CLit bit : arg[0].bits) {
                    fixed.addUnit((rest & 1) ? bit : -bit);
                    rest >>= 1;
                }
            }
            if (fixed.solve() != smt::SatResult::Sat) {
                failures[t].push_back("fixed inputs are unsatisfiable");
                return;
            }
            CircuitBuilder model(fixed);
            for (size_t i = 0; i < cases.size(); ++i) {
                const EncodedFunction &enc = cases[i].enc;
                interp::PlanResult run =
                    cases[i].plan->runExhaustive(frames[i], index);
                bool ub = model.modelLit(enc.ub);
                bool poison = !ub && model.modelLit(enc.ret[0].poison);
                uint64_t value = model.modelBV(enc.ret[0].bits).zext();
                bool run_poison = !run.ub && run.ret[0].poison;
                uint64_t run_value = run.ub ? 0 : run.ret[0].bits.zext();
                if (ub == run.ub && poison == run_poison &&
                    (ub || poison || value == run_value))
                    continue;
                failures[t].push_back(
                    std::string(cases[i].name) + " at i" +
                    std::to_string(width) + ", input index " +
                    std::to_string(index) + ": encoder ub=" +
                    std::to_string(ub) + " poison=" +
                    std::to_string(poison) + " value=" +
                    std::to_string(value) + "; ExecPlan ub=" +
                    std::to_string(run.ub) + " poison=" +
                    std::to_string(run_poison) + " value=" +
                    std::to_string(run_value));
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(sweep, t);
    for (std::thread &thread : pool)
        thread.join();
    for (const auto &list : failures)
        for (const std::string &failure : list)
            ADD_FAILURE() << failure;
}

TEST(WordRuleExhaustive, TwoArgumentShapesMatchExecPlan)
{
    for (unsigned width = 1; width <= 8; ++width)
        checkShapes(2, width);
}

TEST(WordRuleExhaustive, ThreeArgumentShapesMatchExecPlan)
{
    for (unsigned width = 1; width <= 5; ++width)
        checkShapes(3, width);
}

// A rule shape and its canonical form, at i64.
struct Firing
{
    const char *name;
    const char *src;
    const char *tgt;
};

const Firing kFirings[] = {
    {"umin_idempotent",
     "  %m = call T @llvm.umin.T(T %a, T %b)\n"
     "  %r = call T @llvm.umin.T(T %m, T %a)\n",
     "  %r = call T @llvm.umin.T(T %b, T %a)\n"},
    {"umin_absorbs_umax",
     "  %m = call T @llvm.umax.T(T %a, T %b)\n"
     "  %r = call T @llvm.umin.T(T %m, T %a)\n",
     "  %r = add T %a, 0\n"},
    {"umin_of_and_operand",
     "  %x = and T %a, %b\n"
     "  %r = call T @llvm.umin.T(T %a, T %x)\n",
     "  %r = and T %b, %a\n"},
    {"umax_of_or_operand",
     "  %x = or T %b, %a\n"
     "  %r = call T @llvm.umax.T(T %x, T %a)\n",
     "  %r = or T %a, %b\n"},
    {"umin_of_low_mask",
     "  %x = and T %a, 3\n"
     "  %r = call T @llvm.umin.T(T %a, T %x)\n",
     "  %r = and T %a, 3\n"},
    {"smax_reassociated",
     "  %m = call T @llvm.smax.T(T %a, T %b)\n"
     "  %n = call T @llvm.smax.T(T %m, T %a)\n"
     "  %r = call T @llvm.smax.T(T %b, T %n)\n",
     "  %r = call T @llvm.smax.T(T %a, T %b)\n"},
    {"select_uge_is_umax",
     "  %c = icmp uge T %b, %a\n"
     "  %r = select i1 %c, T %b, T %a\n",
     "  %r = call T @llvm.umax.T(T %a, T %b)\n"},
    {"usub_sat_from_umax",
     "  %m = call T @llvm.umax.T(T %a, T %b)\n"
     "  %r = sub T %m, %b\n",
     "  %r = call T @llvm.usub.sat.T(T %a, T %b)\n"},
    {"usub_sat_from_umin",
     "  %m = call T @llvm.umin.T(T %a, T %b)\n"
     "  %r = sub T %a, %m\n",
     "  %r = call T @llvm.usub.sat.T(T %a, T %b)\n"},
    {"usub_sat_select_ugt",
     "  %c = icmp ugt T %a, %b\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %c, T %d, T 0\n",
     "  %r = call T @llvm.usub.sat.T(T %a, T %b)\n"},
    {"usub_sat_select_ult",
     "  %c = icmp ult T %a, %b\n"
     "  %d = sub T %a, %b\n"
     "  %r = select i1 %c, T 0, T %d\n",
     "  %m = call T @llvm.umax.T(T %b, T %a)\n"
     "  %r = sub T %m, %b\n"},
    {"uadd_sat_select_ult",
     "  %s = add T %a, %b\n"
     "  %c = icmp ult T %s, %a\n"
     "  %r = select i1 %c, T -1, T %s\n",
     "  %r = call T @llvm.uadd.sat.T(T %b, T %a)\n"},
    {"uadd_sat_select_uge",
     "  %s = add T %a, %b\n"
     "  %c = icmp uge T %s, %b\n"
     "  %r = select i1 %c, T %s, T -1\n",
     "  %r = call T @llvm.uadd.sat.T(T %a, T %b)\n"},
    {"mul_constants_fold",
     "  %m = mul T %a, 17\n"
     "  %r = mul T %m, 63\n",
     "  %r = mul T 1071, %a\n"},
    {"mul_reassociated",
     "  %m = mul T %a, %b\n"
     "  %n = mul T %m, 6242\n"
     "  %r = mul T %n, %a\n",
     "  %m = mul T %a, 6242\n"
     "  %n = mul T %a, %b\n"
     "  %r = mul T %m, %n\n"},
    {"mul_flags_leave_the_value",
     "  %m = mul nsw T %a, %b\n"
     "  %r = mul T %m, %a\n",
     "  %m = mul T %a, %a\n"
     "  %r = mul T %b, %m\n"},
    {"udiv_self",
     "  %q = udiv T %b, %b\n"
     "  %r = add T %q, %a\n",
     "  %r = add T %a, 1\n"},
    {"srem_self_twice",
     "  %s = srem T %a, %a\n"
     "  %r = srem T %s, %a\n",
     "  %r = xor T %b, %b\n"},
    {"umax_zero_is_identity",
     "  %m = call T @llvm.umax.T(T 0, T %a)\n"
     "  %r = sub T %m, %b\n",
     "  %r = sub T %a, %b\n"},
    {"add_and_or_is_add",
     "  %x = and T %a, %b\n"
     "  %y = or T %a, %b\n"
     "  %r = add T %x, %y\n",
     "  %r = add T %b, %a\n"},
    {"or_minus_and_is_xor",
     "  %x = or T %a, %b\n"
     "  %y = and T %b, %a\n"
     "  %r = sub T %x, %y\n",
     "  %r = xor T %b, %a\n"},
    {"and_minus_or_is_minus_xor",
     "  %x = and T %a, %b\n"
     "  %y = or T %a, %b\n"
     "  %r = sub T %x, %y\n",
     "  %x = xor T %a, %b\n"
     "  %r = sub T 0, %x\n"},
    {"lshr_eq_zero_is_ult",
     "  %s = lshr T %a, 8\n"
     "  %c = icmp eq T %s, 0\n"
     "  %r = select i1 %c, T %a, T %b\n",
     "  %c = icmp ult T %a, 256\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"umin_zext_constant",
     "  %t = trunc T %a to i16\n"
     "  %z = zext i16 %t to T\n"
     "  %r = call T @llvm.umin.T(T %z, T 70000)\n",
     "  %t = trunc T %a to i16\n"
     "  %r = zext i16 %t to T\n"},
    {"square_parity",
     "  %m = mul T %a, %a\n"
     "  %r = and T %m, 1\n",
     "  %r = and T %a, 1\n"},
    {"or_of_zexts",
     "  %c = icmp ult T %a, %b\n"
     "  %d = icmp eq T %a, %b\n"
     "  %x = zext i1 %c to T\n"
     "  %y = zext i1 %d to T\n"
     "  %r = or T %x, %y\n",
     "  %c = icmp ult T %a, %b\n"
     "  %d = icmp eq T %a, %b\n"
     "  %o = or i1 %d, %c\n"
     "  %r = zext i1 %o to T\n"},
    {"low_bit_test_is_truncation",
     "  %m = and T %a, 1\n"
     "  %e = icmp ne T %m, 0\n"
     "  %r = select i1 %e, T %a, T %b\n",
     "  %e = trunc T %a to i1\n"
     "  %r = select i1 %e, T %a, T %b\n"},
    {"add_chain_reassociated",
     "  %s = add T %a, %b\n"
     "  %t = sub T %s, %a\n"
     "  %r = add T %t, %b\n",
     "  %r = shl T %b, 1\n"},
    {"xor_chain_cancels",
     "  %s = xor T %a, %b\n"
     "  %r = xor T %s, %a\n",
     "  %r = xor T %b, 0\n"},
    {"smax_negation_is_abs",
     "  %n = sub T 0, %a\n"
     "  %r = call T @llvm.smax.T(T %a, T %n)\n",
     "  %r = call T @llvm.abs.T(T %a, i1 false)\n"},
    {"smax_negation_first_is_abs",
     "  %n = sub T 0, %a\n"
     "  %r = call T @llvm.smax.T(T %n, T %a)\n",
     "  %r = call T @llvm.abs.T(T %a, i1 false)\n"},
    {"select_slt_zero_is_abs",
     "  %c = icmp slt T %a, 0\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %n, T %a\n",
     "  %n = sub T 0, %a\n"
     "  %r = call T @llvm.smax.T(T %n, T %a)\n"},
    {"select_sgt_minus_one_is_abs",
     "  %c = icmp sgt T %a, -1\n"
     "  %n = sub T 0, %a\n"
     "  %r = select i1 %c, T %a, T %n\n",
     "  %r = call T @llvm.abs.T(T %a, i1 false)\n"},
};

class WordRuleFiring : public testing::TestWithParam<Firing>
{
};

TEST_P(WordRuleFiring, CanonicalFormsMeetWithoutSearch)
{
    const Firing &firing = GetParam();
    auto text = [](const char *body) {
        return atWidth(std::string("define T @f(T %a, T %b) {\n") + body +
                           "  ret T %r\n}\n",
                       64);
    };
    ir::Context ctx;
    auto src = parse(ctx, text(firing.src));
    auto tgt = parse(ctx, text(firing.tgt));
    ASSERT_TRUE(src && tgt);
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    ASSERT_NE(encodeRefinementQuery(cb, *src, *tgt),
              QueryEncoding::Unencodable);
    EXPECT_EQ(sat.solve(), smt::SatResult::Unsat);
    EXPECT_EQ(sat.conflicts(), 0u) << firing.name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WordRuleFiring, testing::ValuesIn(kFirings),
    [](const testing::TestParamInfo<Firing> &info) {
        return std::string(info.param.name);
    });

// The division, clamp and constant-chain rules at i64: each shape meets
// its canonical form before any circuit node exists.
const Firing kFoldings[] = {
    {"sdiv_exact_is_ashr_exact",
     "  %r = sdiv exact T %a, 8\n",
     "  %r = ashr exact T %a, 3\n"},
    {"udiv_exact_is_lshr_exact",
     "  %r = udiv exact T %a, 16\n",
     "  %r = lshr exact T %a, 4\n"},
    {"udiv_is_lshr",
     "  %r = udiv T %a, 4096\n",
     "  %r = lshr T %a, 12\n"},
    {"urem_is_mask",
     "  %r = urem T %b, 16\n",
     "  %r = and T %b, 15\n"},
    {"srem_test_is_mask_test",
     "  %m = srem T %a, 8\n"
     "  %c = icmp eq T %m, 0\n"
     "  %r = select i1 %c, T %a, T %b\n",
     "  %m = and T %a, 7\n"
     "  %c = icmp eq T %m, 0\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"sdiv_by_one",
     "  %r = sdiv exact T %a, 1\n",
     "  %r = add T %a, 0\n"},
    {"clamp_trunc_umin",
     "  %c = icmp slt T %a, 0\n"
     "  %m = call T @llvm.umin.T(T %a, T 255)\n"
     "  %t = trunc nuw T %m to i8\n"
     "  %s = select i1 %c, i8 0, i8 %t\n"
     "  %r = zext i8 %s to T\n",
     "  %x = call T @llvm.smax.T(T %a, T 0)\n"
     "  %m = call T @llvm.umin.T(T %x, T 255)\n"
     "  %t = trunc nuw T %m to i8\n"
     "  %r = zext i8 %t to T\n"},
    {"clamp_select_umin",
     "  %c = icmp sgt T %a, -1\n"
     "  %m = call T @llvm.umin.T(T %a, T 1000)\n"
     "  %r = select i1 %c, T %m, T 0\n",
     "  %x = call T @llvm.smax.T(T 0, T %a)\n"
     "  %r = call T @llvm.umin.T(T 1000, T %x)\n"},
    {"umax_shl_chain",
     "  %m = call T @llvm.umax.T(T %a, T 1)\n"
     "  %s = shl nuw T %m, 1\n"
     "  %r = call T @llvm.umax.T(T %s, T 16)\n",
     "  %s = shl nuw T %a, 1\n"
     "  %r = call T @llvm.umax.T(T %s, T 16)\n"},
    {"umax_shl_chain_by_three",
     "  %m = call T @llvm.umax.T(T %a, T 1)\n"
     "  %s = shl nuw T %m, 3\n"
     "  %r = call T @llvm.umax.T(T %s, T 256)\n",
     "  %s = shl nuw T %a, 3\n"
     "  %r = call T @llvm.umax.T(T %s, T 256)\n"},
    {"uadd_sat_chain",
     "  %s = call T @llvm.uadd.sat.T(T %a, T 10)\n"
     "  %r = call T @llvm.uadd.sat.T(T %s, T 20)\n",
     "  %r = call T @llvm.uadd.sat.T(T 30, T %a)\n"},
    {"uadd_sat_chain_saturates",
     "  %s = call T @llvm.uadd.sat.T(T %a, T -10)\n"
     "  %r = call T @llvm.uadd.sat.T(T %s, T 20)\n",
     "  %r = add T -1, 0\n"},
    {"usub_sat_chain",
     "  %s = call T @llvm.usub.sat.T(T %a, T 10)\n"
     "  %r = call T @llvm.usub.sat.T(T %s, T 20)\n",
     "  %r = call T @llvm.usub.sat.T(T %a, T 30)\n"},
    {"eq_cancels_leaf",
     "  %s = add T %a, %b\n"
     "  %c = icmp eq T %s, %a\n"
     "  %r = select i1 %c, T %a, T %b\n",
     "  %c = icmp eq T %b, 0\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    {"umax_constant_below_bound",
     "  %m = call T @llvm.umax.T(T %a, T 2)\n"
     "  %c = icmp ult T %m, 100\n"
     "  %r = select i1 %c, T %a, T %b\n",
     "  %c = icmp ult T %a, 100\n"
     "  %r = select i1 %c, T %a, T %b\n"},
    // Poison from the operand the rule reads meets on both sides.
    {"poisoned_sdiv_exact",
     "  %p = add nsw T %a, %b\n"
     "  %r = sdiv exact T %p, 8\n",
     "  %p = add nsw T %a, %b\n"
     "  %r = ashr exact T %p, 3\n"},
    {"poisoned_clamp",
     "  %p = mul nuw T %a, %b\n"
     "  %c = icmp slt T %p, 0\n"
     "  %m = call T @llvm.umin.T(T %p, T 255)\n"
     "  %t = trunc nuw T %m to i8\n"
     "  %s = select i1 %c, i8 0, i8 %t\n"
     "  %r = zext i8 %s to T\n",
     "  %p = mul nuw T %a, %b\n"
     "  %x = call T @llvm.smax.T(T %p, T 0)\n"
     "  %m = call T @llvm.umin.T(T %x, T 255)\n"
     "  %t = trunc nuw T %m to i8\n"
     "  %r = zext i8 %t to T\n"},
    {"clamp_of_masked_value",
     "  %v = and T %a, 255\n"
     "  %c = icmp slt T %v, 0\n"
     "  %m = call T @llvm.umin.T(T %v, T 1000)\n"
     "  %r = select i1 %c, T 0, T %m\n",
     "  %r = and T %a, 255\n"},
    {"urem_is_mask_under_demand",
     "  %s = add T %a, %b\n"
     "  %r = urem T %s, 16\n",
     "  %s = add T %b, %a\n"
     "  %r = and T %s, 15\n"},
    {"constant_leaves_fold",
     "  %s = add T %a, 3\n"
     "  %r = sub T %s, 5\n",
     "  %r = add T %a, -2\n"},
};

class WordRuleFolding : public testing::TestWithParam<Firing>
{
};

TEST_P(WordRuleFolding, DecidedWithoutACircuit)
{
    const Firing &firing = GetParam();
    auto text = [](const char *body) {
        return atWidth(std::string("define T @f(T %a, T %b) {\n") + body +
                           "  ret T %r\n}\n",
                       64);
    };
    ir::Context ctx;
    auto src = parse(ctx, text(firing.src));
    auto tgt = parse(ctx, text(firing.tgt));
    ASSERT_TRUE(src && tgt);
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    EXPECT_EQ(encodeRefinementQuery(cb, *src, *tgt),
              QueryEncoding::DecidedByTerms);
    EXPECT_EQ(cb.numNodes(), 0);
    EXPECT_EQ(sat.solve(), smt::SatResult::Unsat);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WordRuleFolding, testing::ValuesIn(kFoldings),
    [](const testing::TestParamInfo<Firing> &info) {
        return std::string(info.param.name);
    });

// Every corpus pair of the families these rules were written for is
// decided by terms, at its own widths and constants (vector lanes
// included).
TEST(WordRuleDecision, DivisionClampAndChainFamiliesFoldOnTerms)
{
    std::vector<corpus::MissedOptBenchmark> pairs = corpus::rq1Benchmarks();
    for (const auto &bench : corpus::rq2Benchmarks())
        pairs.push_back(bench);
    const std::string families[] = {"sdiv_exact", "clamp_umin",
                                    "clamp_umin_vec", "umax_shl",
                                    "sat_chain"};
    unsigned checked = 0;
    for (const auto &bench : pairs) {
        if (std::find(std::begin(families), std::end(families),
                      bench.family) == std::end(families))
            continue;
        ir::Context ctx;
        auto src = parse(ctx, bench.src_text);
        auto tgt = parse(ctx, bench.tgt_text);
        ASSERT_TRUE(src && tgt);
        smt::SatSolver sat;
        CircuitBuilder cb(sat);
        EXPECT_EQ(encodeRefinementQuery(cb, *src, *tgt),
                  QueryEncoding::DecidedByTerms)
            << bench.issue_id;
        EXPECT_EQ(cb.numNodes(), 0) << bench.issue_id;
        ++checked;
    }
    EXPECT_EQ(checked, 16u);
}

// Near misses of the new rules' side conditions stay refuted.
TEST(WordRuleDecision, SideConditionNearMissesAreRefuted)
{
    const std::pair<const char *, const char *> pairs[] = {
        // 6 is no power of two.
        {"  %r = sdiv exact i8 %a, 6\n", "  %r = ashr exact i8 %a, 2\n"},
        // sdiv by 2^(w-1) divides by INT_MIN.
        {"  %r = sdiv exact i8 %a, -128\n",
         "  %r = ashr exact i8 %a, 7\n"},
        // Truncation rounds toward zero, ashr toward -inf.
        {"  %r = sdiv i8 %a, 4\n", "  %r = ashr i8 %a, 2\n"},
        // -2 << 1 wraps; 3 << 2 exceeds 8.
        {"  %m = call i8 @llvm.umax.i8(i8 %a, i8 -2)\n"
         "  %s = shl i8 %m, 1\n"
         "  %r = call i8 @llvm.umax.i8(i8 %s, i8 16)\n",
         "  %s = shl i8 %a, 1\n"
         "  %r = call i8 @llvm.umax.i8(i8 %s, i8 16)\n"},
        {"  %m = call i8 @llvm.umax.i8(i8 %a, i8 3)\n"
         "  %s = shl nuw i8 %m, 2\n"
         "  %r = call i8 @llvm.umax.i8(i8 %s, i8 8)\n",
         "  %s = shl nuw i8 %a, 2\n"
         "  %r = call i8 @llvm.umax.i8(i8 %s, i8 8)\n"},
        // umin(7, 3) is 3, not the arm 7.
        {"  %c = icmp slt i8 %a, 0\n"
         "  %m = call i8 @llvm.umin.i8(i8 %a, i8 3)\n"
         "  %r = select i1 %c, i8 7, i8 %m\n",
         "  %x = call i8 @llvm.smax.i8(i8 %a, i8 7)\n"
         "  %r = call i8 @llvm.umin.i8(i8 %x, i8 3)\n"},
        // 200 + 100 saturates; the wrapped sum 44 does not.
        {"  %s = call i8 @llvm.uadd.sat.i8(i8 %a, i8 200)\n"
         "  %r = call i8 @llvm.uadd.sat.i8(i8 %s, i8 100)\n",
         "  %r = call i8 @llvm.uadd.sat.i8(i8 %a, i8 44)\n"},
    };
    for (const auto &[src_body, tgt_body] : pairs) {
        auto text = [](const char *body) {
            return std::string("define i8 @f(i8 %a) {\n") + body +
                   "  ret i8 %r\n}\n";
        };
        ir::Context ctx;
        auto src = parse(ctx, text(src_body));
        auto tgt = parse(ctx, text(tgt_body));
        ASSERT_TRUE(src && tgt);
        RefinementResult r = checkRefinement(*src, *tgt);
        EXPECT_EQ(r.verdict, Verdict::Incorrect) << src_body;
        EXPECT_EQ(r.backend, "sat") << src_body;
    }
}

// (x | y) - (x & z) is no xor: only (x | y) - (x & y) is.
TEST(WordRuleDecision, OrMinusOtherAndIsRefuted)
{
    for (unsigned width : {8u, 64u}) {
        ir::Context ctx;
        auto src = parse(ctx, atWidth("define T @f(T %a, T %b, T %c) {\n"
                                      "  %x = or T %a, %b\n"
                                      "  %y = and T %a, %c\n"
                                      "  %r = sub T %x, %y\n"
                                      "  ret T %r\n}\n",
                                      width));
        auto tgt = parse(ctx, atWidth("define T @f(T %a, T %b, T %c) {\n"
                                      "  %r = xor T %a, %b\n"
                                      "  ret T %r\n}\n",
                                      width));
        ASSERT_TRUE(src && tgt);
        RefinementResult r = checkRefinement(*src, *tgt);
        EXPECT_EQ(r.verdict, Verdict::Incorrect) << "i" << width;
        EXPECT_EQ(r.backend, "sat") << "i" << width;
    }
}

// smin(x, x & y) is no x & y: where x is negative and y is not, x & y
// is non-negative, so smin picks x.
TEST(WordRuleDecision, SignedMinOfAndIsRefuted)
{
    for (unsigned width : {8u, 64u}) {
        ir::Context ctx;
        auto src = parse(ctx, atWidth("define T @f(T %a, T %b) {\n"
                                      "  %x = and T %a, %b\n"
                                      "  %r = call T @llvm.smin.T(T %a, T %x)\n"
                                      "  ret T %r\n}\n",
                                      width));
        auto tgt = parse(ctx, atWidth("define T @f(T %a, T %b) {\n"
                                      "  %r = and T %a, %b\n"
                                      "  ret T %r\n}\n",
                                      width));
        ASSERT_TRUE(src && tgt);
        RefinementResult r = checkRefinement(*src, *tgt);
        EXPECT_EQ(r.verdict, Verdict::Incorrect) << "i" << width;
        EXPECT_EQ(r.backend, "sat") << "i" << width;
    }
}

// Pairs the bit-level encoding left to the solver (65,878 conflicts
// for the first, the others undecided) meet as terms: no circuit.
TEST(WordRuleDecision, ReassociatedProductsAndSelfRemaindersMeet)
{
    const std::pair<const char *, const char *> pairs[] = {
        {"  %m = mul i16 %a, %a\n"
         "  %r = mul i16 %m, 6242\n",
         "  %m = mul i16 %a, 6242\n"
         "  %r = mul i16 %a, %m\n"},
        {"  %m = mul i16 %a, %a\n"
         "  %r = mul i16 %m, %m\n",
         "  %m = mul i16 %a, %a\n"
         "  %n = mul i16 %a, %m\n"
         "  %r = mul i16 %a, %n\n"},
        {"  %s = srem i16 %a, %a\n"
         "  %r = srem i16 %s, %a\n",
         "  %r = add i16 0, 0\n"},
    };
    for (const auto &[src_body, tgt_body] : pairs) {
        auto text = [](const char *body) {
            return std::string("define i16 @f(i16 %a) {\n") + body +
                   "  ret i16 %r\n}\n";
        };
        ir::Context ctx;
        auto src = parse(ctx, text(src_body));
        auto tgt = parse(ctx, text(tgt_body));
        ASSERT_TRUE(src && tgt);
        smt::SatSolver sat;
        CircuitBuilder cb(sat);
        EXPECT_EQ(encodeRefinementQuery(cb, *src, *tgt),
                  QueryEncoding::DecidedByTerms)
            << src_body;
        EXPECT_EQ(cb.numNodes(), 0) << src_body;
        EXPECT_EQ(sat.solve(), smt::SatResult::Unsat) << src_body;
        EXPECT_EQ(sat.conflicts(), 0u) << src_body;
    }
}

// Flags and UB stay out of value terms: each pair's values meet, but
// the target is poison or UB where the source is not.
TEST(WordRuleDecision, FlagAndUBNearMissesAreRefuted)
{
    const std::pair<const char *, const char *> pairs[] = {
        {"  %r = add nuw i8 %a, %b\n", "  %r = add nsw i8 %a, %b\n"},
        {"  %r = add nsw i8 %a, %b\n", "  %r = add nuw i8 %b, %a\n"},
        {"  %r = sub nuw i8 %a, %b\n", "  %r = sub nsw i8 %a, %b\n"},
        {"  %r = mul nuw i8 %a, %b\n", "  %r = mul nsw i8 %b, %a\n"},
        {"  %r = shl nuw i8 %a, %b\n", "  %r = shl nsw i8 %a, %b\n"},
        {"  %t = trunc nuw i8 %a to i4\n"
         "  %r = zext i4 %t to i8\n",
         "  %t = trunc nsw i8 %a to i4\n"
         "  %r = zext i4 %t to i8\n"},
        {"  %m = mul i8 %a, %b\n"
         "  %r = mul nsw i8 %m, %c\n",
         "  %m = mul i8 %b, %c\n"
         "  %r = mul nsw i8 %a, %m\n"},
        {"  %m = mul nsw i8 %a, %b\n"
         "  %r = mul nsw i8 %m, %c\n",
         "  %m = mul nsw i8 %c, %b\n"
         "  %r = mul nsw i8 %m, %a\n"},
        {"  %r = add i8 %c, 1\n",
         "  %q = udiv i8 %a, %a\n"
         "  %r = add i8 %c, %q\n"},
        {"  %r = add i8 %c, 0\n",
         "  %q = srem i8 %b, %b\n"
         "  %r = add i8 %c, %q\n"},
        {"  %r = add i8 %c, 0\n",
         "  %q = sdiv i8 0, %b\n"
         "  %r = add i8 %c, %q\n"},
    };
    for (const auto &[src_body, tgt_body] : pairs) {
        auto text = [](const char *body) {
            return std::string("define i8 @f(i8 %a, i8 %b, i8 %c) {\n") +
                   body + "  ret i8 %r\n}\n";
        };
        ir::Context ctx;
        auto src = parse(ctx, text(src_body));
        auto tgt = parse(ctx, text(tgt_body));
        ASSERT_TRUE(src && tgt);
        RefinementResult r = checkRefinement(*src, *tgt);
        EXPECT_EQ(r.verdict, Verdict::Incorrect) << tgt_body;
        EXPECT_EQ(r.backend, "sat") << tgt_body;
    }
}

// ---------------------------------------------------------------------
// The identities themselves, proved at i64 from raw primitives.
// ---------------------------------------------------------------------

struct Words
{
    CircuitBuilder &b;
    BitVec a, x, c;

    BitVec umin(const BitVec &p, const BitVec &q)
    {
        return b.bvMux(b.bvULt(p, q), p, q);
    }
    BitVec umax(const BitVec &p, const BitVec &q)
    {
        return b.bvMux(b.bvULt(p, q), q, p);
    }
    BitVec smin(const BitVec &p, const BitVec &q)
    {
        return b.bvMux(b.bvSLt(p, q), p, q);
    }
    BitVec smax(const BitVec &p, const BitVec &q)
    {
        return b.bvMux(b.bvSLt(p, q), q, p);
    }
    BitVec usubSat(const BitVec &p, const BitVec &q)
    {
        return b.bvMux(b.bvULt(p, q),
                       CircuitBuilder::constBV(APInt::zero(64)),
                       b.bvSub(p, q));
    }
    BitVec uaddSat(const BitVec &p, const BitVec &q)
    {
        CLit carry = CircuitBuilder::kFalse;
        BitVec sum = b.bvAdd(p, q, &carry);
        return b.bvMux(carry, CircuitBuilder::constBV(APInt::allOnes(64)),
                       sum);
    }
    static BitVec k(uint64_t v) { return CircuitBuilder::constBV(APInt(64, v)); }
    BitVec quotient(bool is_signed, const BitVec &p, const BitVec &q)
    {
        BitVec quot, rem;
        b.bvDivRem(is_signed, p, q, CircuitBuilder::kTrue, &quot, &rem);
        return quot;
    }
    BitVec remainder(bool is_signed, const BitVec &p, const BitVec &q)
    {
        BitVec quot, rem;
        b.bvDivRem(is_signed, p, q, CircuitBuilder::kTrue, &quot, &rem);
        return rem;
    }
    /** trunc(p, 3) != 0, the shared inexactness predicate. */
    CLit lowBitsSet(const BitVec &p)
    {
        return b.bvNonZero(CircuitBuilder::bvTrunc(p, 3));
    }
};

struct Identity
{
    const char *name;
    /** Builds (lhs, rhs) over a, b (x here) and c. */
    std::function<std::pair<BitVec, BitVec>(Words &)> sides;
};

const Identity kIdentities[] = {
    {"umin_idempotent",
     [](Words &w) {
         return std::make_pair(w.umin(w.umin(w.a, w.x), w.a),
                               w.umin(w.a, w.x));
     }},
    {"umin_associative_commutative",
     [](Words &w) {
         return std::make_pair(w.umin(w.umin(w.a, w.x), w.c),
                               w.umin(w.c, w.umin(w.x, w.a)));
     }},
    {"smax_idempotent",
     [](Words &w) {
         return std::make_pair(w.smax(w.x, w.smax(w.a, w.x)),
                               w.smax(w.x, w.a));
     }},
    {"umin_absorbs_umax",
     [](Words &w) {
         return std::make_pair(w.umin(w.a, w.umax(w.a, w.x)), w.a);
     }},
    {"umax_absorbs_umin",
     [](Words &w) {
         return std::make_pair(w.umax(w.a, w.umin(w.x, w.a)), w.a);
     }},
    {"smin_absorbs_smax",
     [](Words &w) {
         return std::make_pair(w.smin(w.smax(w.x, w.a), w.a), w.a);
     }},
    {"smax_absorbs_smin",
     [](Words &w) {
         return std::make_pair(w.smax(w.smin(w.a, w.x), w.a), w.a);
     }},
    {"select_ult_is_umin",
     [](Words &w) {
         return std::make_pair(w.b.bvMux(w.b.bvULt(w.a, w.x), w.a, w.x),
                               w.umin(w.x, w.a));
     }},
    {"select_ult_is_umax",
     [](Words &w) {
         return std::make_pair(w.b.bvMux(w.b.bvULt(w.a, w.x), w.x, w.a),
                               w.umax(w.x, w.a));
     }},
    {"select_slt_is_smin",
     [](Words &w) {
         return std::make_pair(w.b.bvMux(w.b.bvSLt(w.a, w.x), w.a, w.x),
                               w.smin(w.x, w.a));
     }},
    {"uge_is_not_ult",
     [](Words &w) {
         CLit uge = w.b.orGate(w.b.bvEq(w.a, w.x), w.b.bvULt(w.x, w.a));
         return std::make_pair(BitVec{uge}, BitVec{-w.b.bvULt(w.a, w.x)});
     }},
    {"sge_is_not_slt",
     [](Words &w) {
         CLit sge = w.b.orGate(w.b.bvEq(w.a, w.x), w.b.bvSLt(w.x, w.a));
         return std::make_pair(BitVec{sge}, BitVec{-w.b.bvSLt(w.a, w.x)});
     }},
    {"umax_minus_operand_is_usub_sat",
     [](Words &w) {
         return std::make_pair(w.b.bvSub(w.umax(w.a, w.x), w.x),
                               w.usubSat(w.a, w.x));
     }},
    {"operand_minus_umin_is_usub_sat",
     [](Words &w) {
         return std::make_pair(w.b.bvSub(w.x, w.umin(w.a, w.x)),
                               w.usubSat(w.x, w.a));
     }},
    {"select_ugt_sub_is_usub_sat",
     [](Words &w) {
         return std::make_pair(
             w.b.bvMux(w.b.bvULt(w.x, w.a), w.b.bvSub(w.a, w.x),
                       CircuitBuilder::constBV(APInt::zero(64))),
             w.usubSat(w.a, w.x));
     }},
    {"select_wrapped_sum_is_uadd_sat",
     [](Words &w) {
         BitVec sum = w.b.bvAdd(w.a, w.x);
         return std::make_pair(
             w.b.bvMux(w.b.bvULt(sum, w.a),
                       CircuitBuilder::constBV(APInt::allOnes(64)), sum),
             w.uaddSat(w.x, w.a));
     }},
    {"add_reassociates_and_cancels",
     [](Words &w) {
         BitVec lhs = w.b.bvSub(w.b.bvAdd(w.b.bvAdd(w.a, w.x), w.c), w.a);
         return std::make_pair(lhs, w.b.bvAdd(w.c, w.x));
     }},
    {"mul_constant_factors_fold",
     [](Words &w) {
         auto c = [](uint64_t v) { return CircuitBuilder::constBV(APInt(64, v)); };
         return std::make_pair(w.b.bvMul(w.b.bvMul(w.a, c(3)), c(3)),
                               w.b.bvMul(w.a, c(9)));
     }},
    {"shl_one_is_double",
     [](Words &w) {
         return std::make_pair(
             w.b.bvShl(w.a, CircuitBuilder::constBV(APInt(64, 1))),
             w.b.bvAdd(w.a, w.a));
     }},
    {"negated_leaf_first",
     [](Words &w) {
         return std::make_pair(w.b.bvAdd(w.b.bvNeg(w.x), w.a),
                               w.b.bvSub(w.a, w.x));
     }},
    {"smax_negation_is_abs",
     [](Words &w) {
         BitVec neg = w.b.bvNeg(w.a);
         return std::make_pair(w.smax(w.a, neg),
                               w.b.bvMux(w.a.back(), neg, w.a));
     }},
    {"select_sgt_minus_one_is_abs",
     [](Words &w) {
         BitVec neg = w.b.bvNeg(w.a);
         CLit positive =
             w.b.bvSLt(CircuitBuilder::constBV(APInt::allOnes(64)), w.a);
         return std::make_pair(w.b.bvMux(positive, w.a, neg),
                               w.b.bvMux(w.a.back(), neg, w.a));
     }},
    {"umax_zero_is_identity",
     [](Words &w) {
         return std::make_pair(
             w.umax(w.a, CircuitBuilder::constBV(APInt::zero(64))), w.a);
     }},
    {"umin_zero_absorbs",
     [](Words &w) {
         BitVec zero = CircuitBuilder::constBV(APInt::zero(64));
         return std::make_pair(w.umin(w.a, zero), zero);
     }},
    {"smin_int_max_is_identity",
     [](Words &w) {
         return std::make_pair(
             w.smin(w.a, CircuitBuilder::constBV(APInt::signedMax(64))),
             w.a);
     }},
    {"smax_int_max_absorbs",
     [](Words &w) {
         BitVec max = CircuitBuilder::constBV(APInt::signedMax(64));
         return std::make_pair(w.smax(max, w.a), max);
     }},
    {"and_plus_or_is_sum",
     [](Words &w) {
         return std::make_pair(
             w.b.bvAdd(w.b.bvAnd(w.a, w.x), w.b.bvOr(w.a, w.x)),
             w.b.bvAdd(w.a, w.x));
     }},
    {"or_minus_and_is_xor",
     [](Words &w) {
         return std::make_pair(
             w.b.bvSub(w.b.bvOr(w.a, w.x), w.b.bvAnd(w.a, w.x)),
             w.b.bvXor(w.a, w.x));
     }},
    {"lshr_is_zero_is_ult",
     [](Words &w) {
         BitVec shifted =
             w.b.bvLShr(w.a, CircuitBuilder::constBV(APInt(64, 8)));
         CLit zero =
             w.b.bvEq(shifted, CircuitBuilder::constBV(APInt::zero(64)));
         return std::make_pair(
             BitVec{zero},
             BitVec{w.b.bvULt(w.a, CircuitBuilder::constBV(APInt(64, 256)))});
     }},
    {"low_mask_is_truncation",
     [](Words &w) {
         return std::make_pair(
             w.b.bvAnd(w.a, CircuitBuilder::constBV(APInt(64, 255))),
             CircuitBuilder::bvZext(CircuitBuilder::bvTrunc(w.a, 8), 64));
     }},
    {"udiv_pow2_is_lshr",
     [](Words &w) {
         return std::make_pair(w.quotient(false, w.a, Words::k(8)),
                               w.b.bvLShr(w.a, Words::k(3)));
     }},
    {"urem_pow2_is_mask",
     [](Words &w) {
         return std::make_pair(w.remainder(false, w.a, Words::k(8)),
                               w.b.bvAnd(w.a, Words::k(7)));
     }},
    {"sdiv_pow2_rounds_ashr_toward_zero",
     [](Words &w) {
         CLit up = w.b.andGate(w.a.back(), w.lowBitsSet(w.a));
         BitVec bump = CircuitBuilder::bvZext(BitVec{up}, 64);
         return std::make_pair(
             w.quotient(true, w.a, Words::k(8)),
             w.b.bvAdd(w.b.bvAShr(w.a, Words::k(3)), bump));
     }},
    {"srem_pow2_is_low_bits_with_borrow",
     [](Words &w) {
         CLit up = w.b.andGate(w.a.back(), w.lowBitsSet(w.a));
         BitVec low = CircuitBuilder::bvZext(
             CircuitBuilder::bvTrunc(w.a, 3), 64);
         return std::make_pair(
             w.remainder(true, w.a, Words::k(8)),
             w.b.bvMux(up, w.b.bvOr(low, Words::k(~uint64_t(7))), low));
     }},
    {"exact_shift_round_trip_tests_low_bits",
     [](Words &w) {
         BitVec back = w.b.bvShl(w.b.bvAShr(w.a, Words::k(3)), Words::k(3));
         return std::make_pair(BitVec{w.b.bvEq(back, w.a)},
                               BitVec{-w.lowBitsSet(w.a)});
     }},
    {"shl_round_trip_tests_high_bits",
     [](Words &w) {
         BitVec back = w.b.bvLShr(w.b.bvShl(w.a, Words::k(3)), Words::k(3));
         return std::make_pair(
             BitVec{w.b.bvEq(back, w.a)},
             BitVec{w.b.bvULt(w.a, Words::k(uint64_t(1) << 61))});
     }},
    {"clamp_select_is_smax_umin",
     [](Words &w) {
         BitVec clamped = CircuitBuilder::bvTrunc(w.umin(w.a, Words::k(255)), 8);
         BitVec zero = CircuitBuilder::constBV(APInt::zero(8));
         BitVec lhs = w.b.bvMux(w.a.back(), zero, clamped);
         BitVec rhs = CircuitBuilder::bvTrunc(
             w.umin(w.smax(w.a, Words::k(0)), Words::k(255)), 8);
         return std::make_pair(lhs, rhs);
     }},
    {"umax_shl_chain_drops_inner_umax",
     [](Words &w) {
         BitVec inner = w.b.bvShl(w.umax(w.a, Words::k(1)), Words::k(3));
         return std::make_pair(
             w.umax(inner, Words::k(256)),
             w.umax(w.b.bvShl(w.a, Words::k(3)), Words::k(256)));
     }},
    {"uadd_sat_chain_adds_constants",
     [](Words &w) {
         return std::make_pair(
             w.uaddSat(w.uaddSat(w.a, Words::k(10)), Words::k(20)),
             w.uaddSat(w.a, Words::k(30)));
     }},
    {"uadd_sat_chain_saturates",
     [](Words &w) {
         return std::make_pair(
             w.uaddSat(w.uaddSat(w.a, Words::k(~uint64_t(9))), Words::k(20)),
             CircuitBuilder::constBV(APInt::allOnes(64)));
     }},
    {"usub_sat_chain_adds_constants",
     [](Words &w) {
         return std::make_pair(
             w.usubSat(w.usubSat(w.a, Words::k(10)), Words::k(20)),
             w.usubSat(w.a, Words::k(30)));
     }},
    {"eq_cancels_shared_leaf",
     [](Words &w) {
         return std::make_pair(
             BitVec{w.b.bvEq(w.b.bvAdd(w.a, w.x), w.a)},
             BitVec{-w.b.bvNonZero(w.x)});
     }},
    {"ult_sees_through_umax_constant",
     [](Words &w) {
         return std::make_pair(
             BitVec{w.b.bvULt(w.umax(w.a, Words::k(2)), Words::k(100))},
             BitVec{w.b.bvULt(w.a, Words::k(100))});
     }},
    {"zext_is_below_its_range",
     [](Words &w) {
         BitVec z = CircuitBuilder::bvZext(CircuitBuilder::bvTrunc(w.a, 8), 64);
         CLit in_range = w.b.andGate(w.b.bvULt(z, Words::k(256)),
                                     -w.b.bvSLt(z, Words::k(0)));
         return std::make_pair(BitVec{in_range},
                               BitVec{CircuitBuilder::kTrue});
     }},
    {"smax_zext_zero_is_zext",
     [](Words &w) {
         BitVec z = CircuitBuilder::bvZext(CircuitBuilder::bvTrunc(w.a, 8), 64);
         return std::make_pair(w.smax(z, Words::k(0)), z);
     }},
    {"urem_pow2_reads_low_bits",
     [](Words &w) {
         BitVec low = CircuitBuilder::bvZext(
             CircuitBuilder::bvTrunc(w.b.bvAdd(w.a, w.x), 4), 64);
         return std::make_pair(
             w.remainder(false, w.b.bvAdd(w.a, w.x), Words::k(16)),
             w.remainder(false, low, Words::k(16)));
     }},
    {"xor_reassociates_and_cancels",
     [](Words &w) {
         BitVec lhs = w.b.bvXor(w.b.bvXor(w.a, w.c), w.b.bvXor(w.x, w.a));
         return std::make_pair(lhs, w.b.bvXor(w.x, w.c));
     }},
};

class WordRuleIdentity : public testing::TestWithParam<Identity>
{
};

TEST_P(WordRuleIdentity, HoldsAtI64)
{
    smt::SatSolver sat;
    CircuitBuilder cb(sat);
    Words w{cb, cb.freshBV(64), cb.freshBV(64), cb.freshBV(64)};
    auto [lhs, rhs] = GetParam().sides(w);
    cb.require(-cb.bvEq(lhs, rhs));
    EXPECT_EQ(sat.solve(), smt::SatResult::Unsat) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Identities, WordRuleIdentity, testing::ValuesIn(kIdentities),
    [](const testing::TestParamInfo<Identity> &info) {
        return std::string(info.param.name);
    });

} // namespace
