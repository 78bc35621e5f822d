#include "verify/encoder.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "support/failpoint.h"

namespace lpo::verify {

using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;
using ir::Type;
using ir::Value;
using smt::BitVec;
using smt::CircuitBuilder;
using smt::CLit;

namespace {

unsigned
laneCount(const Type *type)
{
    return type->isVector() ? type->lanes() : 1;
}

bool
typeEncodable(const Type *type)
{
    return type->isIntOrIntVector();
}

/**
 * Canonical operand order for commutative operations whose circuit
 * construction is asymmetric (multiply's shift-add array, min/max
 * comparator-mux). Gate-level sorting inside CircuitBuilder already
 * canonicalizes add/and/or/xor; this extends the same idea one level
 * up so that a candidate that merely commutes `umin(a, b)` or
 * `mul(a, b)` hits the identical unique-table nodes as the source —
 * turning what would be a comparator/multiplier commutativity proof
 * into a structurally shared cone. Ordering is by the operand bit
 * literals (lexicographic), so it is a pure function of the circuit
 * and deterministic across runs.
 */
bool
laneOrderedBefore(const BitVec &a, const BitVec &b)
{
    return a < b;
}

/** Per-function encoding pass. */
class Encoder
{
  public:
    Encoder(CircuitBuilder &builder) : b_(builder) {}

    std::optional<EncodedFunction> run(const ir::Function &fn,
                                       const std::vector<ValueEnc> *shared);

  private:
    ValueEnc valueOf(const Value *v);
    void encodeInstruction(const Instruction *inst);

    LaneEnc intBinaryLane(const Instruction *inst, const LaneEnc &a,
                          const LaneEnc &b);
    LaneEnc icmpLane(const Instruction *inst, const LaneEnc &a,
                     const LaneEnc &b);
    LaneEnc castLane(const Instruction *inst, const LaneEnc &a);
    LaneEnc intrinsicLane(const Instruction *inst,
                          const std::vector<LaneEnc> &args);

    /** One operand of a flattened modular add chain; @p neg marks a
     *  subtracted leaf (x + -x cancels exactly mod 2^w). */
    struct AddLeaf
    {
        BitVec bits;
        bool neg;
        bool operator<(const AddLeaf &o) const
        {
            return bits < o.bits || (bits == o.bits && neg < o.neg);
        }
    };

    std::vector<AddLeaf> addLeavesOf(const BitVec &v);
    BitVec canonicalAdd(std::vector<AddLeaf> leaves, unsigned width);
    std::vector<BitVec> xorLeavesOf(const BitVec &v);
    BitVec canonicalXor(std::vector<BitVec> leaves, unsigned width);

    BitVec countLeadingZeros(const BitVec &x);
    BitVec countTrailingZeros(const BitVec &x);
    BitVec popCount(const BitVec &x);

    void
    addUB(CLit condition)
    {
        ub_ = b_.orGate(ub_, condition);
    }

    CircuitBuilder &b_;
    std::map<const Value *, ValueEnc> env_;
    CLit ub_ = CircuitBuilder::kFalse;
    /**
     * Word-level chain flattening: maps the bits of a value produced
     * by an add/sub chain (or shl-by-one, which is x+x mod 2^w) to
     * the flattened signed multiset of leaf operands whose sum it
     * equals, and likewise for xor chains. Chain instructions fold
     * their combined sorted leaves left-to-right after cancelling
     * inverse pairs (x + -x = 0 mod 2^w; x ^ x = 0), so any
     * reassociation, commutation, or cancellation-based rewrite of
     * the same chain rebuilds the same gates and lands on the same
     * unique-table nodes — turning adder reassociation and sub/add
     * round-trip proofs (the most expensive miter classes in the
     * module benchmark) into structural sharing. Sound because both
     * operations are associative and commutative with exact inverses
     * mod 2^w, and overflow poison is still computed from the
     * instruction's own operands.
     */
    std::map<BitVec, std::vector<AddLeaf>> add_leaves_;
    std::map<BitVec, std::vector<BitVec>> xor_leaves_;
};

std::vector<Encoder::AddLeaf>
Encoder::addLeavesOf(const BitVec &v)
{
    auto it = add_leaves_.find(v);
    if (it != add_leaves_.end())
        return it->second;
    return {AddLeaf{v, false}};
}

BitVec
Encoder::canonicalAdd(std::vector<AddLeaf> leaves, unsigned width)
{
    std::sort(leaves.begin(), leaves.end());
    // Cancel +x / -x pairs: sorted order puts them adjacent.
    std::vector<AddLeaf> kept;
    for (size_t i = 0; i < leaves.size();) {
        if (i + 1 < leaves.size() && leaves[i].bits == leaves[i + 1].bits &&
            !leaves[i].neg && leaves[i + 1].neg) {
            i += 2;
            continue;
        }
        kept.push_back(leaves[i]);
        ++i;
    }
    BitVec acc;
    if (kept.empty()) {
        acc = CircuitBuilder::constBV(APInt::zero(width));
    } else {
        acc = kept[0].neg ? b_.bvNeg(kept[0].bits) : kept[0].bits;
        for (size_t i = 1; i < kept.size(); ++i)
            acc = kept[i].neg ? b_.bvSub(acc, kept[i].bits)
                              : b_.bvAdd(acc, kept[i].bits);
    }
    add_leaves_[acc] = std::move(kept);
    return acc;
}

std::vector<BitVec>
Encoder::xorLeavesOf(const BitVec &v)
{
    auto it = xor_leaves_.find(v);
    if (it != xor_leaves_.end())
        return it->second;
    return {v};
}

BitVec
Encoder::canonicalXor(std::vector<BitVec> leaves, unsigned width)
{
    std::sort(leaves.begin(), leaves.end());
    // x ^ x = 0: drop equal pairs (adjacent after the sort).
    std::vector<BitVec> kept;
    for (size_t i = 0; i < leaves.size();) {
        if (i + 1 < leaves.size() && leaves[i] == leaves[i + 1]) {
            i += 2;
            continue;
        }
        kept.push_back(leaves[i]);
        ++i;
    }
    BitVec acc;
    if (kept.empty()) {
        acc = CircuitBuilder::constBV(APInt::zero(width));
    } else {
        acc = kept[0];
        for (size_t i = 1; i < kept.size(); ++i)
            acc = b_.bvXor(acc, kept[i]);
    }
    xor_leaves_[acc] = std::move(kept);
    return acc;
}

ValueEnc
Encoder::valueOf(const Value *v)
{
    switch (v->kind()) {
      case Value::Kind::Argument:
      case Value::Kind::Instruction: {
        auto it = env_.find(v);
        assert(it != env_.end());
        return it->second;
      }
      case Value::Kind::ConstInt: {
        const auto *ci = static_cast<const ir::ConstantInt *>(v);
        return {LaneEnc{CircuitBuilder::constBV(ci->value()),
                        CircuitBuilder::kFalse}};
      }
      case Value::Kind::Poison: {
        ValueEnc out;
        unsigned lanes = laneCount(v->type());
        unsigned width = v->type()->scalarType()->intWidth();
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(
                LaneEnc{CircuitBuilder::constBV(APInt::zero(width)),
                        CircuitBuilder::kTrue});
        return out;
      }
      case Value::Kind::ConstVector: {
        const auto *cv = static_cast<const ir::ConstantVector *>(v);
        ValueEnc out;
        for (const Value *e : cv->elements()) {
            ValueEnc lane = valueOf(e);
            out.push_back(lane[0]);
        }
        return out;
      }
      case Value::Kind::ConstFP:
        assert(false && "FP constant in encodable fragment");
        return {};
    }
    assert(false);
    return {};
}

LaneEnc
Encoder::intBinaryLane(const Instruction *inst, const LaneEnc &a,
                       const LaneEnc &b)
{
    const ir::InstFlags &flags = inst->flags();
    const BitVec &x = a.bits;
    const BitVec &y = b.bits;
    unsigned width = x.size();
    CLit poison = b_.orGate(a.poison, b.poison);
    BitVec bits;

    switch (inst->op()) {
      case Opcode::Add: {
        std::vector<AddLeaf> leaves = addLeavesOf(x);
        std::vector<AddLeaf> more = addLeavesOf(y);
        leaves.insert(leaves.end(), more.begin(), more.end());
        bits = canonicalAdd(std::move(leaves), width);
        if (flags.nuw)
            poison = b_.orGate(poison, b_.addOverflowsU(x, y));
        if (flags.nsw)
            poison = b_.orGate(poison, b_.addOverflowsS(x, y));
        break;
      }
      case Opcode::Sub: {
        std::vector<AddLeaf> leaves = addLeavesOf(x);
        for (AddLeaf leaf : addLeavesOf(y)) {
            leaf.neg = !leaf.neg;
            leaves.push_back(std::move(leaf));
        }
        bits = canonicalAdd(std::move(leaves), width);
        if (flags.nuw)
            poison = b_.orGate(poison, b_.subOverflowsU(x, y));
        if (flags.nsw)
            poison = b_.orGate(poison, b_.subOverflowsS(x, y));
        break;
      }
      case Opcode::Mul: {
        // The shift-add array is asymmetric in its operands; encode
        // in canonical operand order so commuted candidates share the
        // multiplier cone.
        const BitVec *p = &x, *q = &y;
        if (laneOrderedBefore(y, x))
            std::swap(p, q);
        bits = b_.bvMul(*p, *q);
        if (flags.nuw)
            poison = b_.orGate(poison, b_.mulOverflowsU(*p, *q));
        if (flags.nsw)
            poison = b_.orGate(poison, b_.mulOverflowsS(*p, *q));
        break;
      }
      case Opcode::UDiv: case Opcode::URem: {
        // Divisor poison or zero is immediate UB.
        addUB(b_.orGate(b.poison, -b_.bvNonZero(y)));
        CLit guard = b_.andGate(-b.poison, b_.bvNonZero(y));
        BitVec q, r;
        b_.bvUDivRem(x, y, guard, &q, &r);
        bits = inst->op() == Opcode::UDiv ? q : r;
        if (flags.exact && inst->op() == Opcode::UDiv)
            poison = b_.orGate(poison, b_.bvNonZero(r));
        break;
      }
      case Opcode::SDiv: case Opcode::SRem: {
        addUB(b_.orGate(b.poison, -b_.bvNonZero(y)));
        // INT_MIN / -1 overflow is UB (when the dividend is defined).
        CLit x_is_min = b_.bvEq(x,
            CircuitBuilder::constBV(APInt::signedMin(width)));
        CLit y_is_m1 = b_.bvEq(y,
            CircuitBuilder::constBV(APInt::allOnes(width)));
        addUB(b_.andMany({-a.poison, x_is_min, y_is_m1}));
        CLit guard = b_.andMany(
            {-b.poison, b_.bvNonZero(y),
             -b_.andGate(x_is_min, y_is_m1)});
        BitVec q, r;
        b_.bvSDivRem(x, y, guard, &q, &r);
        bits = inst->op() == Opcode::SDiv ? q : r;
        if (flags.exact && inst->op() == Opcode::SDiv)
            poison = b_.orGate(poison, b_.bvNonZero(r));
        break;
      }
      case Opcode::Shl: {
        BitVec amount_ok_bits = y;
        CLit oversize = b_.bvULe(
            CircuitBuilder::constBV(APInt(width, width)), y);
        poison = b_.orGate(poison, oversize);
        // shl x, 1 is x + x mod 2^w: route it through the add-chain
        // canonicalizer so `v + y + y` and `v + (y << 1)` share cones.
        bool amount_is_one = width > 0 && y[0] == CircuitBuilder::kTrue;
        for (unsigned i = 1; amount_is_one && i < width; ++i)
            amount_is_one = y[i] == CircuitBuilder::kFalse;
        if (amount_is_one) {
            std::vector<AddLeaf> leaves = addLeavesOf(x);
            std::vector<AddLeaf> twice = leaves;
            leaves.insert(leaves.end(), twice.begin(), twice.end());
            bits = canonicalAdd(std::move(leaves), width);
        } else
            bits = b_.bvShl(x, y);
        if (flags.nuw) {
            // Some set bit shifted out: (x >> (width - amount)) != 0,
            // checked via round trip.
            BitVec back = b_.bvLShr(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        if (flags.nsw) {
            BitVec back = b_.bvAShr(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        (void)amount_ok_bits;
        break;
      }
      case Opcode::LShr: {
        CLit oversize = b_.bvULe(
            CircuitBuilder::constBV(APInt(width, width)), y);
        poison = b_.orGate(poison, oversize);
        bits = b_.bvLShr(x, y);
        if (flags.exact) {
            BitVec back = b_.bvShl(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        break;
      }
      case Opcode::AShr: {
        CLit oversize = b_.bvULe(
            CircuitBuilder::constBV(APInt(width, width)), y);
        poison = b_.orGate(poison, oversize);
        bits = b_.bvAShr(x, y);
        if (flags.exact) {
            BitVec back = b_.bvShl(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        break;
      }
      case Opcode::And:
        bits = b_.bvAnd(x, y);
        break;
      case Opcode::Or:
        bits = b_.bvOr(x, y);
        if (flags.disjoint)
            poison = b_.orGate(poison,
                               b_.bvNonZero(b_.bvAnd(x, y)));
        break;
      case Opcode::Xor: {
        std::vector<BitVec> leaves = xorLeavesOf(x);
        std::vector<BitVec> more = xorLeavesOf(y);
        leaves.insert(leaves.end(), more.begin(), more.end());
        bits = canonicalXor(std::move(leaves), width);
        break;
      }
      default:
        assert(false);
    }
    return LaneEnc{bits, poison};
}

LaneEnc
Encoder::icmpLane(const Instruction *inst, const LaneEnc &a,
                  const LaneEnc &b)
{
    CLit r = CircuitBuilder::kFalse;
    const BitVec &x = a.bits;
    const BitVec &y = b.bits;
    switch (inst->icmpPred()) {
      case ir::ICmpPred::EQ: r = b_.bvEq(x, y); break;
      case ir::ICmpPred::NE: r = -b_.bvEq(x, y); break;
      case ir::ICmpPred::UGT: r = b_.bvULt(y, x); break;
      case ir::ICmpPred::UGE: r = b_.bvULe(y, x); break;
      case ir::ICmpPred::ULT: r = b_.bvULt(x, y); break;
      case ir::ICmpPred::ULE: r = b_.bvULe(x, y); break;
      case ir::ICmpPred::SGT: r = b_.bvSLt(y, x); break;
      case ir::ICmpPred::SGE: r = b_.bvSLe(y, x); break;
      case ir::ICmpPred::SLT: r = b_.bvSLt(x, y); break;
      case ir::ICmpPred::SLE: r = b_.bvSLe(x, y); break;
    }
    return LaneEnc{BitVec{r}, b_.orGate(a.poison, b.poison)};
}

LaneEnc
Encoder::castLane(const Instruction *inst, const LaneEnc &a)
{
    unsigned dst = inst->type()->scalarType()->intWidth();
    const ir::InstFlags &flags = inst->flags();
    CLit poison = a.poison;
    BitVec bits;
    switch (inst->op()) {
      case Opcode::Trunc: {
        bits = CircuitBuilder::bvTrunc(a.bits, dst);
        if (flags.nuw) {
            std::vector<CLit> high(a.bits.begin() + dst, a.bits.end());
            poison = b_.orGate(poison, b_.orMany(high));
        }
        if (flags.nsw) {
            CLit sign = bits.back();
            std::vector<CLit> mismatch;
            for (size_t i = dst; i < a.bits.size(); ++i)
                mismatch.push_back(b_.xorGate(a.bits[i], sign));
            poison = b_.orGate(poison, b_.orMany(mismatch));
        }
        break;
      }
      case Opcode::ZExt:
        bits = CircuitBuilder::bvZext(a.bits, dst);
        if (flags.nneg)
            poison = b_.orGate(poison, a.bits.back());
        break;
      case Opcode::SExt:
        bits = CircuitBuilder::bvSext(a.bits, dst);
        break;
      default:
        assert(false);
    }
    return LaneEnc{bits, poison};
}

BitVec
Encoder::popCount(const BitVec &x)
{
    unsigned width = x.size();
    BitVec acc = CircuitBuilder::constBV(APInt::zero(width));
    for (CLit bit : x) {
        BitVec addend = CircuitBuilder::constBV(APInt::zero(width));
        addend[0] = bit;
        acc = b_.bvAdd(acc, addend);
    }
    return acc;
}

BitVec
Encoder::countLeadingZeros(const BitVec &x)
{
    unsigned width = x.size();
    // Scan from the MSB: result = index of first set bit from the top.
    BitVec result = CircuitBuilder::constBV(APInt(width, width));
    for (unsigned i = 0; i < width; ++i) {
        // If bit i set, leading zeros = width - 1 - i; later (higher)
        // bits override earlier ones as we iterate upward.
        result = b_.bvMux(x[i],
                          CircuitBuilder::constBV(APInt(width,
                                                        width - 1 - i)),
                          result);
    }
    return result;
}

BitVec
Encoder::countTrailingZeros(const BitVec &x)
{
    unsigned width = x.size();
    BitVec result = CircuitBuilder::constBV(APInt(width, width));
    for (int i = static_cast<int>(width) - 1; i >= 0; --i) {
        result = b_.bvMux(x[i],
                          CircuitBuilder::constBV(APInt(width, i)),
                          result);
    }
    return result;
}

LaneEnc
Encoder::intrinsicLane(const Instruction *inst,
                       const std::vector<LaneEnc> &args)
{
    const BitVec &x = args[0].bits;
    unsigned width = x.size();
    CLit poison = args[0].poison;
    BitVec bits;
    switch (inst->intrinsic()) {
      // min/max comparator-mux circuits are asymmetric; encode in
      // canonical operand order so commuted candidates share the cone
      // (the mux picks the same *value* either way: on ties both
      // operands are bit-equal in every model).
      case Intrinsic::UMin: {
        poison = b_.orGate(poison, args[1].poison);
        const BitVec *p = &x, *q = &args[1].bits;
        if (laneOrderedBefore(*q, *p))
            std::swap(p, q);
        bits = b_.bvMux(b_.bvULt(*p, *q), *p, *q);
        break;
      }
      case Intrinsic::UMax: {
        poison = b_.orGate(poison, args[1].poison);
        const BitVec *p = &x, *q = &args[1].bits;
        if (laneOrderedBefore(*q, *p))
            std::swap(p, q);
        bits = b_.bvMux(b_.bvULt(*p, *q), *q, *p);
        break;
      }
      case Intrinsic::SMin: {
        poison = b_.orGate(poison, args[1].poison);
        const BitVec *p = &x, *q = &args[1].bits;
        if (laneOrderedBefore(*q, *p))
            std::swap(p, q);
        bits = b_.bvMux(b_.bvSLt(*p, *q), *p, *q);
        break;
      }
      case Intrinsic::SMax: {
        poison = b_.orGate(poison, args[1].poison);
        const BitVec *p = &x, *q = &args[1].bits;
        if (laneOrderedBefore(*q, *p))
            std::swap(p, q);
        bits = b_.bvMux(b_.bvSLt(*p, *q), *q, *p);
        break;
      }
      case Intrinsic::Abs: {
        CLit is_min = b_.bvEq(
            x, CircuitBuilder::constBV(APInt::signedMin(width)));
        // args[1] is a constant immarg.
        if (args[1].bits[0] == CircuitBuilder::kTrue)
            poison = b_.orGate(poison, is_min);
        bits = b_.bvMux(x.back(), b_.bvNeg(x), x);
        break;
      }
      case Intrinsic::CtPop:
        bits = popCount(x);
        break;
      case Intrinsic::CtLz: {
        if (args[1].bits[0] == CircuitBuilder::kTrue)
            poison = b_.orGate(poison, -b_.bvNonZero(x));
        bits = countLeadingZeros(x);
        break;
      }
      case Intrinsic::CtTz: {
        if (args[1].bits[0] == CircuitBuilder::kTrue)
            poison = b_.orGate(poison, -b_.bvNonZero(x));
        bits = countTrailingZeros(x);
        break;
      }
      case Intrinsic::USubSat: {
        poison = b_.orGate(poison, args[1].poison);
        CLit lt = b_.bvULt(x, args[1].bits);
        bits = b_.bvMux(lt, CircuitBuilder::constBV(APInt::zero(width)),
                        b_.bvSub(x, args[1].bits));
        break;
      }
      case Intrinsic::UAddSat: {
        poison = b_.orGate(poison, args[1].poison);
        CLit ovf = b_.addOverflowsU(x, args[1].bits);
        bits = b_.bvMux(ovf,
                        CircuitBuilder::constBV(APInt::allOnes(width)),
                        b_.bvAdd(x, args[1].bits));
        break;
      }
      case Intrinsic::SSubSat: {
        poison = b_.orGate(poison, args[1].poison);
        CLit ovf = b_.subOverflowsS(x, args[1].bits);
        BitVec sat = b_.bvMux(
            b_.bvSLe(args[1].bits, x),
            CircuitBuilder::constBV(APInt::signedMax(width)),
            CircuitBuilder::constBV(APInt::signedMin(width)));
        bits = b_.bvMux(ovf, sat, b_.bvSub(x, args[1].bits));
        break;
      }
      case Intrinsic::SAddSat: {
        poison = b_.orGate(poison, args[1].poison);
        CLit ovf = b_.addOverflowsS(x, args[1].bits);
        BitVec sat = b_.bvMux(
            x.back(),
            CircuitBuilder::constBV(APInt::signedMin(width)),
            CircuitBuilder::constBV(APInt::signedMax(width)));
        bits = b_.bvMux(ovf, sat, b_.bvAdd(x, args[1].bits));
        break;
      }
      default:
        assert(false && "unencodable intrinsic");
    }
    return LaneEnc{bits, poison};
}

void
Encoder::encodeInstruction(const Instruction *inst)
{
    unsigned lanes = laneCount(inst->type());
    ValueEnc out;

    if (inst->isIntBinaryOp()) {
        ValueEnc a = valueOf(inst->operand(0));
        ValueEnc b = valueOf(inst->operand(1));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(intBinaryLane(inst, a[i], b[i]));
        env_[inst] = out;
        return;
    }
    switch (inst->op()) {
      case Opcode::ICmp: {
        ValueEnc a = valueOf(inst->operand(0));
        ValueEnc b = valueOf(inst->operand(1));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(icmpLane(inst, a[i], b[i]));
        break;
      }
      case Opcode::Select: {
        ValueEnc cond = valueOf(inst->operand(0));
        ValueEnc tval = valueOf(inst->operand(1));
        ValueEnc fval = valueOf(inst->operand(2));
        bool scalar_cond = inst->operand(0)->type()->isBool();
        for (unsigned i = 0; i < lanes; ++i) {
            const LaneEnc &c = scalar_cond ? cond[0] : cond[i];
            CLit sel = c.bits[0];
            LaneEnc lane;
            lane.bits = b_.bvMux(sel, tval[i].bits, fval[i].bits);
            CLit chosen_poison =
                b_.muxGate(sel, tval[i].poison, fval[i].poison);
            lane.poison = b_.orGate(c.poison, chosen_poison);
            out.push_back(lane);
        }
        break;
      }
      case Opcode::Trunc: case Opcode::ZExt: case Opcode::SExt: {
        ValueEnc a = valueOf(inst->operand(0));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(castLane(inst, a[i]));
        break;
      }
      case Opcode::Freeze: {
        ValueEnc a = valueOf(inst->operand(0));
        unsigned width = inst->type()->scalarType()->intWidth();
        for (unsigned i = 0; i < lanes; ++i) {
            LaneEnc lane;
            lane.bits = b_.bvMux(
                a[i].poison,
                CircuitBuilder::constBV(APInt::zero(width)), a[i].bits);
            lane.poison = CircuitBuilder::kFalse;
            out.push_back(lane);
        }
        break;
      }
      case Opcode::Call: {
        std::vector<ValueEnc> args;
        for (const Value *operand : inst->operands())
            args.push_back(valueOf(operand));
        for (unsigned i = 0; i < lanes; ++i) {
            std::vector<LaneEnc> lane_args;
            for (const ValueEnc &arg : args)
                lane_args.push_back(arg.size() == 1 ? arg[0] : arg[i]);
            out.push_back(intrinsicLane(inst, lane_args));
        }
        break;
      }
      default:
        assert(false && "unencodable instruction reached encoder");
    }
    env_[inst] = out;
}

std::optional<EncodedFunction>
Encoder::run(const ir::Function &fn, const std::vector<ValueEnc> *shared)
{
    if (!canEncode(fn))
        return std::nullopt;

    EncodedFunction result;
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const Type *type = fn.arg(i)->type();
        ValueEnc enc;
        if (shared) {
            enc = (*shared)[i];
        } else {
            unsigned lanes = laneCount(type);
            unsigned width = type->scalarType()->intWidth();
            for (unsigned lane = 0; lane < lanes; ++lane)
                enc.push_back(LaneEnc{b_.freshBV(width),
                                      CircuitBuilder::kFalse});
        }
        env_[fn.arg(i)] = enc;
        result.args.push_back(enc);
    }
    const ir::BasicBlock *entry = fn.entry();
    for (const auto &inst : entry->instructions()) {
        if (inst->op() == Opcode::Ret) {
            result.ret = valueOf(inst->operand(0));
            result.ub = ub_;
            return result;
        }
        encodeInstruction(inst.get());
    }
    return std::nullopt; // no ret found (unreachable for valid IR)
}

} // namespace

bool
canEncode(const ir::Function &fn)
{
    if (fn.blocks().size() != 1)
        return false;
    if (!typeEncodable(fn.returnType()))
        return false;
    for (const auto &arg : fn.args())
        if (!typeEncodable(arg->type()))
            return false;
    for (const auto &inst : fn.entry()->instructions()) {
        switch (inst->op()) {
          case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
          case Opcode::FDiv: case Opcode::FCmp:
          case Opcode::Load: case Opcode::Store: case Opcode::Gep:
          case Opcode::Phi: case Opcode::Br:
            return false;
          case Opcode::Call:
            if (inst->intrinsic() == Intrinsic::FAbs)
                return false;
            // abs/ctlz/cttz flags must be constant immargs.
            if ((inst->intrinsic() == Intrinsic::Abs ||
                 inst->intrinsic() == Intrinsic::CtLz ||
                 inst->intrinsic() == Intrinsic::CtTz) &&
                inst->operand(1)->kind() != Value::Kind::ConstInt)
                return false;
            break;
          case Opcode::Ret:
            if (inst->numOperands() == 0)
                return false;
            break;
          default:
            break;
        }
        if (!inst->type()->isVoid() && !inst->isTerminator() &&
            !typeEncodable(inst->type()))
            return false;
    }
    return fn.entry()->terminator() &&
           fn.entry()->terminator()->op() == Opcode::Ret;
}

std::optional<EncodedFunction>
encodeFunction(smt::CircuitBuilder &builder, const ir::Function &fn,
               const std::vector<ValueEnc> *shared_args)
{
    // Chaos-test injection: the bit-blaster blowing up mid-encoding
    // (resource exhaustion in real deployments). The per-case
    // containment in core/pipeline.cc must convert this into a
    // case-level failure, never a lost module run.
    if (LPO_FAILPOINT("bitblast.throw"))
        throw FailPointError("injected bit-blaster failure "
                             "(failpoint bitblast.throw)");
    Encoder encoder(builder);
    return encoder.run(fn, shared_args);
}

namespace {

/** Fresh, non-poison argument encodings for @p fn's signature, so src
 *  and tgt range over identical inputs. */
std::vector<ValueEnc>
encodeSharedArgs(smt::CircuitBuilder &builder, const ir::Function &fn)
{
    std::vector<ValueEnc> args;
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const Type *type = fn.arg(i)->type();
        ValueEnc enc;
        unsigned lanes = laneCount(type);
        unsigned width = type->scalarType()->intWidth();
        for (unsigned lane = 0; lane < lanes; ++lane)
            enc.push_back(LaneEnc{builder.freshBV(width),
                                  CircuitBuilder::kFalse});
        args.push_back(enc);
    }
    return args;
}

/**
 * The refinement-violation literal over two encodings that share
 * their arguments:
 *
 *   !src.ub && (tgt.ub || exists lane:
 *               !src.poison[l] && (tgt.poison[l] || bits differ))
 */
CLit
refinementViolation(smt::CircuitBuilder &builder,
                    const EncodedFunction &src_enc,
                    const EncodedFunction &tgt_enc)
{
    std::vector<CLit> lane_violations;
    for (size_t lane = 0; lane < src_enc.ret.size(); ++lane) {
        const LaneEnc &s = src_enc.ret[lane];
        const LaneEnc &t = tgt_enc.ret[lane];
        CLit mismatch = builder.orGate(
            t.poison, -builder.bvEq(s.bits, t.bits));
        lane_violations.push_back(
            builder.andGate(-s.poison, mismatch));
    }
    CLit violation = builder.orGate(tgt_enc.ub,
                                    builder.orMany(lane_violations));
    return builder.andGate(-src_enc.ub, violation);
}

} // namespace

bool
encodeRefinementQuery(smt::CircuitBuilder &builder,
                      const ir::Function &src, const ir::Function &tgt,
                      std::vector<ValueEnc> *shared_args_out)
{
    std::vector<ValueEnc> args = encodeSharedArgs(builder, src);

    std::optional<EncodedFunction> src_enc =
        encodeFunction(builder, src, &args);
    std::optional<EncodedFunction> tgt_enc =
        encodeFunction(builder, tgt, &args);
    if (!src_enc || !tgt_enc)
        return false;

    builder.require(refinementViolation(builder, *src_enc, *tgt_enc));
    if (shared_args_out)
        *shared_args_out = std::move(args);
    return true;
}

} // namespace lpo::verify
