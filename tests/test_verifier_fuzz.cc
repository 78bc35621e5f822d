// Verifier soundness fuzzer: the SAT backend against exhaustive
// enumeration through ExecPlan (DESIGN.md, "Verifier cross-check").
//
// Each pair is a seeded straight-line function over at most 16 input
// bits, built with ir::Builder, and a near-miss mutant of it: a clone
// (or, for one kind, the original) edited in place. checkRefinement
// decides the pair by bit-blasting; the oracle below, which shares no
// code with verify/refine.cc, decides it by running both through
// ExecPlan on every input. The verdicts must agree, every SAT
// counterexample must replay, and every decision path and mutation
// kind must be exercised. A Timeout is undecided: reported, bounded to 1% of the pairs, never
// counted as agreement.
//
// Besides the mutants, some pairs plant a word-level rule's shape
// (division by a power of two, a clamp select, a constant chain) at the
// end of a generated function, against its canonical form (the rule
// must fire: the pair is decided by terms) or against a near miss that
// breaks the rule's side condition (it must be refuted).
//
// ctest runs a fixed-seed slice of 2,000 pairs with multiplication and
// division at most i8 wide; LPO_VERIFIER_FUZZ=<pairs>[,<seed>] runs
// another budget with them at every width (tools/ci.sh passes a ten
// times longer one with a fresh seed).

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "interp/exec_plan.h"
#include "ir/builder.h"
#include "ir/pattern.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "support/task_graph.h"
#include "verify/refine.h"

using namespace lpo;
using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;
using ir::Value;

namespace {

// ---------------------------------------------------------------------
// Straight-line functions over one integer width
// ---------------------------------------------------------------------

/** {width, arguments}: at most 16 input bits each. */
const unsigned kShapes[][2] = {{4, 1}, {4, 2}, {4, 3}, {4, 4},
                               {5, 3}, {8, 1}, {8, 2}, {16, 1}};

/** One operator the generator draws; Select is an icmp plus a select. */
struct Op
{
    Opcode opcode;
    Intrinsic intrinsic = Intrinsic::None;

    bool operator==(const Op &) const = default;
};

const Op kOps[] = {
    {Opcode::Add},  {Opcode::Sub},  {Opcode::Mul},    {Opcode::And},
    {Opcode::Or},   {Opcode::Xor},  {Opcode::Shl},    {Opcode::LShr},
    {Opcode::AShr}, {Opcode::UDiv}, {Opcode::SDiv},   {Opcode::URem},
    {Opcode::SRem}, {Opcode::Select}, {Opcode::Freeze},
    {Opcode::Call, Intrinsic::UMin},    {Opcode::Call, Intrinsic::UMax},
    {Opcode::Call, Intrinsic::SMin},    {Opcode::Call, Intrinsic::SMax},
    {Opcode::Call, Intrinsic::UAddSat}, {Opcode::Call, Intrinsic::SAddSat},
    {Opcode::Call, Intrinsic::USubSat}, {Opcode::Call, Intrinsic::SSubSat},
    {Opcode::Call, Intrinsic::Abs}};

const ir::ICmpPred kPreds[] = {
    ir::ICmpPred::EQ,  ir::ICmpPred::NE,  ir::ICmpPred::ULT,
    ir::ICmpPred::ULE, ir::ICmpPred::UGT, ir::ICmpPred::UGE,
    ir::ICmpPred::SLT, ir::ICmpPred::SLE, ir::ICmpPred::SGT,
    ir::ICmpPred::SGE};

/** Operators an operator swap exchanges. */
const std::vector<std::vector<Op>> kSwapGroups = {
    {{Opcode::Add}, {Opcode::Sub}, {Opcode::Mul}, {Opcode::And},
     {Opcode::Or}, {Opcode::Xor}},
    {{Opcode::Shl}, {Opcode::LShr}, {Opcode::AShr}},
    {{Opcode::UDiv}, {Opcode::SDiv}, {Opcode::URem}, {Opcode::SRem}},
    {{Opcode::Call, Intrinsic::UMin}, {Opcode::Call, Intrinsic::UMax},
     {Opcode::Call, Intrinsic::SMin}, {Opcode::Call, Intrinsic::SMax}},
    {{Opcode::Call, Intrinsic::UAddSat}, {Opcode::Call, Intrinsic::SAddSat},
     {Opcode::Call, Intrinsic::USubSat}, {Opcode::Call, Intrinsic::SSubSat}},
};

Op
opOf(const Instruction &inst)
{
    return {inst.op(), inst.intrinsic()};
}

const std::vector<Op> *
swapGroup(Op op)
{
    for (const auto &group : kSwapGroups)
        for (Op member : group)
            if (member == op)
                return &group;
    return nullptr;
}

bool
hasWrapFlags(Opcode op)
{
    return op == Opcode::Add || op == Opcode::Sub || op == Opcode::Mul ||
           op == Opcode::Shl;
}

bool
hasExactFlag(Opcode op)
{
    return op == Opcode::LShr || op == Opcode::AShr || op == Opcode::UDiv ||
           op == Opcode::SDiv;
}

bool
isAbs(const Instruction &inst)
{
    return inst.intrinsic() == Intrinsic::Abs;
}

/** Multiplication and division: slow to bit-blast at i16. */
bool
isHard(Opcode op)
{
    return op == Opcode::Mul || ir::isIntDivRem(op);
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/**
 * A function of 2–6 operators. A quarter of them chain onto the
 * previous operator with its own kind (reassociation sites, add and
 * sub chains for the term rules) and a tenth mask a value to its low
 * bits (demanded width). Multiplication and division are drawn only at
 * widths up to @p max_hard_width.
 */
std::unique_ptr<ir::Function>
generate(ir::Context &ctx, Rng &rng, unsigned max_hard_width)
{
    const unsigned *shape = kShapes[rng.nextBelow(std::size(kShapes))];
    const unsigned width = shape[0];
    const ir::Type *type = ctx.types().intTy(width);
    auto fn = std::make_unique<ir::Function>(ctx, "src", type);
    std::vector<Value *> values; ///< arguments, then results
    for (unsigned i = 0; i < shape[1]; ++i)
        values.push_back(fn->addArg(type, "a" + std::to_string(i)));
    ir::Builder b(*fn, fn->addBlock("entry"));

    // A defined value, recent ones likelier; a constant; either.
    auto pickValue = [&] {
        const size_t back =
            rng.chance(0.3) ? rng.nextBelow(values.size())
                            : rng.nextBelow(std::min<size_t>(values.size(), 2));
        return values[values.size() - 1 - back];
    };
    auto pickConstant = [&] {
        static const int64_t kSpecial[] = {0, 1, 2, 3, -1, -2};
        const uint64_t mask = (uint64_t(1) << width) - 1;
        switch (rng.nextBelow(4)) {
          case 0: return ctx.getInt(width, rng.next() & mask);
          case 1: return ctx.getInt(width, uint64_t(1) << (width - 1));
          default:
            return ctx.getInt(width, uint64_t(kSpecial[rng.nextBelow(6)]) &
                                         mask);
        }
    };
    auto pickOperand = [&]() -> Value * {
        return rng.chance(0.3) ? pickConstant() : pickValue();
    };

    const size_t count = 2 + rng.nextBelow(5);
    Op prev{Opcode::Ret};
    for (size_t pos = 0; pos < count; ++pos) {
        Op op;
        std::vector<Value *> ops;
        const bool chainable = (prev.opcode == Opcode::Call &&
                                prev.intrinsic != Intrinsic::Abs) ||
                               (prev.opcode >= Opcode::Add &&
                                prev.opcode <= Opcode::Xor);
        if (chainable && rng.chance(0.25)) {
            op = prev;
            ops = {values.back(), pickOperand()};
        } else if (rng.chance(0.1)) {
            op = {Opcode::And};
            const unsigned bits = 1 + rng.nextBelow(width - 1);
            ops = {pickValue(), ctx.getInt(width, (uint64_t(1) << bits) - 1)};
        } else {
            do
                op = kOps[rng.nextBelow(std::size(kOps))];
            while (isHard(op.opcode) && width > max_hard_width);
            const size_t arity = op.opcode == Opcode::Select ? 4
                                 : op.opcode == Opcode::Freeze ||
                                         op.intrinsic == Intrinsic::Abs
                                     ? 1
                                     : 2;
            ops.push_back(pickValue());
            while (ops.size() < arity)
                ops.push_back(pickOperand());
        }
        Value *result = nullptr;
        if (op.opcode == Opcode::Select) {
            Value *cond = b.icmp(kPreds[rng.nextBelow(std::size(kPreds))],
                                 ops[0], ops[1]);
            result = b.select(cond, ops[2], ops[3]);
        } else if (op.opcode == Opcode::Freeze) {
            result = b.freeze(ops[0]);
        } else if (op.intrinsic == Intrinsic::Abs) {
            result = b.intrinsic(op.intrinsic,
                                 {ops[0], ctx.getBool(rng.chance(0.25))});
        } else if (op.opcode == Opcode::Call) {
            result = b.intrinsic(op.intrinsic, ops);
        } else {
            ir::InstFlags flags;
            flags.nsw = hasWrapFlags(op.opcode) && rng.chance(0.25);
            flags.nuw = hasWrapFlags(op.opcode) && rng.chance(0.25);
            flags.exact = hasExactFlag(op.opcode) && rng.chance(0.25);
            result = b.binary(op.opcode, ops[0], ops[1], flags);
        }
        values.push_back(result);
        prev = op;
    }
    b.ret(values.back());
    return fn;
}

// ---------------------------------------------------------------------
// Near-miss mutations, applied in place to a function or its clone
// ---------------------------------------------------------------------

enum Mutation {
    kOpSwap,
    kFlagFlip,
    kConstOffByOne,
    kOperandSwap,
    kPredicateChange,
    kValidReassociation,
    kInvalidReassociation,
    kCancellingPairUnderPoison,
    kNarrowerMask,
    kNumMutations
};

const char *const kMutationNames[kNumMutations] = {
    "operator swap", "flag flip", "off-by-one constant", "operand swap",
    "predicate change", "valid reassociation", "invalid reassociation",
    "cancelling pair under poison", "mask one bit narrower"};

/** Insert `op l, r` with @p flags before @p pos in @p fn's block. */
Instruction *
insertBinary(ir::Function &fn, const Instruction *pos, Opcode op, Value *l,
             Value *r, ir::InstFlags flags)
{
    ir::BasicBlock &block = *fn.entry();
    size_t index = 0;
    while (block.at(index) != pos)
        ++index;
    auto inst = std::make_unique<Instruction>(op, l->type(),
                                              std::vector<Value *>{l, r});
    inst->flags() = flags;
    return block.insert(index, std::move(inst));
}

/** A random instruction of @p fn accepted by @p accept, or nullptr. */
template <typename Accept>
Instruction *
pickSite(Rng &rng, const ir::Function &fn, Accept accept)
{
    std::vector<Instruction *> sites;
    for (const auto &inst : fn.entry()->instructions())
        if (!inst->isTerminator() && accept(*inst))
            sites.push_back(inst.get());
    return sites.empty() ? nullptr : sites[rng.nextBelow(sites.size())];
}

/** @p inst's first operand when an instruction of the same opcode
 *  defines it: a reassociation site. */
const Instruction *
sameOpFirstOperand(const Instruction &inst)
{
    if (!inst.isIntBinaryOp() ||
        inst.operand(0)->kind() != Value::Kind::Instruction)
        return nullptr;
    auto *def = static_cast<const Instruction *>(inst.operand(0));
    return def->op() == inst.op() ? def : nullptr;
}

/** A low mask 2^k - 1 with k >= 1, or 0. */
uint64_t
lowMask(const Value *v)
{
    APInt c;
    if (!ir::matchConstInt(v, &c))
        return 0;
    const uint64_t m = c.zext();
    return m != 0 && (m & (m + 1)) == 0 ? m : 0;
}

/**
 * Apply @p kind to @p src or @p tgt, copies of one function; false if
 * the function has no site for it. The cancelling pair goes into
 * either side, so it yields both valid and invalid pairs.
 */
bool
mutate(Rng &rng, Mutation kind, ir::Function &src, ir::Function &tgt)
{
    ir::Context &ctx = tgt.context();
    const ir::Type *type = tgt.returnType();
    const unsigned width = type->intWidth();
    switch (kind) {
      case kOpSwap: {
        Instruction *inst = pickSite(rng, tgt, [](const Instruction &i) {
            return swapGroup(opOf(i)) != nullptr;
        });
        if (!inst)
            return false;
        const std::vector<Op> &group = *swapGroup(opOf(*inst));
        Op op;
        do
            op = group[rng.nextBelow(group.size())];
        while (op == opOf(*inst));
        if (op.opcode == Opcode::Call) {
            inst->setIntrinsic(op.intrinsic);
            return true;
        }
        ir::InstFlags flags = inst->flags();
        flags.nsw &= hasWrapFlags(op.opcode);
        flags.nuw &= hasWrapFlags(op.opcode);
        flags.exact &= hasExactFlag(op.opcode);
        Instruction *swapped = insertBinary(
            tgt, inst, op.opcode, inst->operand(0), inst->operand(1), flags);
        tgt.replaceAllUses(inst, swapped);
        tgt.entry()->erase(inst);
        return true;
      }
      case kFlagFlip: {
        // abs's int-min-is-poison operand counts as its exact flag.
        Instruction *inst = pickSite(rng, tgt, [](const Instruction &i) {
            return hasWrapFlags(i.op()) || hasExactFlag(i.op()) || isAbs(i);
        });
        if (!inst)
            return false;
        if (isAbs(*inst)) {
            inst->setOperand(
                1, ctx.getBool(!ir::isConstIntValue(inst->operand(1), 1)));
            return true;
        }
        ir::InstFlags &flags = inst->flags();
        bool &flag = hasExactFlag(inst->op()) ? flags.exact
                     : rng.chance(0.5)        ? flags.nsw
                                              : flags.nuw;
        flag = !flag;
        return true;
      }
      case kConstOffByOne: {
        std::vector<std::pair<Instruction *, unsigned>> constants;
        for (const auto &inst : tgt.entry()->instructions())
            for (unsigned k = 0; k < inst->numOperands(); ++k)
                if (inst->operand(k)->kind() == Value::Kind::ConstInt &&
                    inst->operand(k)->type() == type)
                    constants.emplace_back(inst.get(), k);
        if (constants.empty())
            return false;
        auto [inst, k] = constants[rng.nextBelow(constants.size())];
        const uint64_t c =
            static_cast<const ir::ConstantInt *>(inst->operand(k))
                ->value()
                .zext();
        inst->setOperand(k, ctx.getInt(width, c + (rng.chance(0.5) ? 1 : -1)));
        return true;
      }
      case kOperandSwap: {
        Instruction *inst = pickSite(rng, tgt, [](const Instruction &i) {
            return i.numOperands() >= 2 && !isAbs(i);
        });
        if (!inst)
            return false;
        const unsigned first = inst->op() == Opcode::Select ? 1 : 0;
        Value *lhs = inst->operand(first);
        inst->setOperand(first, inst->operand(first + 1));
        inst->setOperand(first + 1, lhs);
        return true;
      }
      case kPredicateChange: {
        Instruction *inst = pickSite(rng, tgt, [](const Instruction &i) {
            return i.op() == Opcode::ICmp;
        });
        if (!inst)
            return false;
        ir::ICmpPred pred;
        do
            pred = kPreds[rng.nextBelow(std::size(kPreds))];
        while (pred == inst->icmpPred());
        inst->setICmpPred(pred);
        return true;
      }
      case kValidReassociation:
      case kInvalidReassociation: {
        // (a op b) op c  ->  a op (b op c). Valid for an associative
        // op once its flags are dropped; invalid for sub, and for add
        // and mul with nsw asserted on the new pair.
        const bool valid = kind == kValidReassociation;
        Instruction *outer = pickSite(rng, tgt, [&](const Instruction &i) {
            const Opcode op = i.op();
            return sameOpFirstOperand(i) &&
                   (valid ? op == Opcode::Add || op == Opcode::Mul ||
                                op == Opcode::And || op == Opcode::Or ||
                                op == Opcode::Xor
                          : op == Opcode::Sub || op == Opcode::Add ||
                                op == Opcode::Mul);
        });
        if (!outer)
            return false;
        const Instruction *inner = sameOpFirstOperand(*outer);
        ir::InstFlags flags;
        flags.nsw = !valid && outer->op() != Opcode::Sub;
        Instruction *right =
            insertBinary(tgt, outer, outer->op(), inner->operand(1),
                         outer->operand(1), flags);
        outer->setOperand(0, inner->operand(0));
        outer->setOperand(1, right);
        outer->flags() = flags;
        return true;
      }
      case kCancellingPairUnderPoison: {
        // v  ->  (v + k) - k, each with the same (or no) wrap flag.
        ir::Function &side = rng.chance(0.5) ? tgt : src;
        Instruction *inst = pickSite(rng, side, [&](const Instruction &i) {
            return i.operand(0)->type() == type &&
                   !i.operand(0)->isConstant();
        });
        if (!inst)
            return false;
        Value *k = ctx.getInt(
            width, 1 + rng.nextBelow((uint64_t(1) << width) - 1));
        const unsigned flag = rng.nextBelow(3);
        ir::InstFlags flags;
        flags.nsw = flag == 1;
        flags.nuw = flag == 2;
        Instruction *add =
            insertBinary(side, inst, Opcode::Add, inst->operand(0), k, flags);
        inst->setOperand(
            0, insertBinary(side, inst, Opcode::Sub, add, k, flags));
        return true;
      }
      case kNarrowerMask: {
        // and v, 2^k - 1  ->  and v, 2^(k-1) - 1
        Instruction *inst = pickSite(rng, tgt, [](const Instruction &i) {
            return i.op() == Opcode::And && lowMask(i.operand(1));
        });
        if (!inst)
            return false;
        inst->setOperand(1, ctx.getInt(width, lowMask(inst->operand(1)) >> 1));
        return true;
      }
      case kNumMutations:
        break;
    }
    return false;
}

// ---------------------------------------------------------------------
// Planted rule shapes: a rule's source shape against its canonical
// form, or against the form the rule would give without its side
// condition (a near miss), appended to one generated function
// ---------------------------------------------------------------------

/** The word-level rules a planted pair exercises. */
enum Plant {
    kPlantSdivExact,
    kPlantUnsignedDiv,
    kPlantClamp,
    kPlantUMaxShl,
    kPlantSatChain,
    kNumPlants
};

const char *const kPlantNames[kNumPlants] = {
    "sdiv exact by 2^k", "udiv/urem by 2^k", "clamp select",
    "umax/shl chain", "saturating chain"};

/** The side condition a near miss breaks. */
enum NearMiss {
    kNotPowerOfTwo,
    kSignedMinDivisor,
    kShiftWraps,
    kShiftExceeds,
    kArmNotFixed,
    kSumSaturates,
    kNumNearMisses,
    kNoNearMiss = kNumNearMisses
};

const char *const kNearMissNames[kNumNearMisses] = {
    "divisor not a power of two", "sdiv by 2^(w-1)", "C1 << k wraps",
    "C1 << k exceeds C2", "select arm not fixed by the op",
    "constant sum saturates"};

/** A uniform value in [lo, hi]. */
uint64_t
between(Rng &rng, uint64_t lo, uint64_t hi)
{
    return lo + rng.nextBelow(hi - lo + 1);
}

/**
 * Replace the ret of @p src and of @p tgt, clones of one generated
 * function, by @p kind's shape over one value (the returned value or
 * an argument, the same on both sides): the rule's source shape in
 * @p src, and in @p tgt its canonical form or, for a near miss, the
 * form the rule would give if it ignored its side condition. Near
 * misses that need a divider are drawn only up to @p max_hard_width.
 * Returns the side condition broken, or kNoNearMiss.
 */
NearMiss
plant(Rng &rng, Plant kind, unsigned max_hard_width, ir::Function &src,
      ir::Function &tgt)
{
    ir::Context &ctx = src.context();
    const ir::Type *type = src.returnType();
    const unsigned w = type->intWidth();
    const uint64_t ones = (uint64_t(1) << w) - 1;
    const bool miss = rng.chance(0.5);
    const int arg =
        rng.chance(0.5) ? static_cast<int>(rng.nextBelow(src.numArgs())) : -1;
    auto open = [&](ir::Function &fn) {
        ir::BasicBlock &block = *fn.entry();
        Value *v = arg >= 0 ? fn.arg(arg) : block.terminator()->operand(0);
        block.erase(block.terminator());
        return v;
    };
    Value *sv = open(src);
    Value *tv = open(tgt);
    ir::Builder s(src, src.entry());
    ir::Builder t(tgt, tgt.entry());
    auto k = [&](uint64_t c) { return ctx.getInt(w, c & ones); };
    ir::InstFlags exact;
    exact.exact = true;
    NearMiss broken = kNoNearMiss;
    Value *sr = nullptr, *tr = nullptr;
    switch (kind) {
      case kPlantSdivExact: {
        // sdiv exact v, 2^k  ->  ashr exact v, k  (k <= w - 2).
        unsigned shift = static_cast<unsigned>(between(rng, 1, w - 2));
        uint64_t divisor = uint64_t(1) << shift;
        if (miss && w <= max_hard_width) {
            broken = rng.chance(0.5) ? kNotPowerOfTwo : kSignedMinDivisor;
            if (broken == kSignedMinDivisor)
                divisor = uint64_t(1) << (shift = w - 1);
            else
                divisor = uint64_t(3) << (shift - 1);
        }
        sr = s.binary(Opcode::SDiv, sv, k(divisor), exact);
        tr = t.binary(Opcode::AShr, tv, k(shift), exact);
        break;
      }
      case kPlantUnsignedDiv: {
        // udiv v, 2^k  ->  lshr v, k;  urem v, 2^k  ->  and v, 2^k - 1.
        unsigned shift = static_cast<unsigned>(between(rng, 1, w - 1));
        uint64_t divisor = uint64_t(1) << shift;
        if (miss && w <= max_hard_width) {
            broken = kNotPowerOfTwo;
            shift = std::max(shift, 2u);
            divisor = uint64_t(3) << (shift - 2);
        }
        ir::InstFlags flags;
        flags.exact = rng.chance(0.5);
        if (rng.chance(0.5)) {
            sr = s.binary(Opcode::UDiv, sv, k(divisor), flags);
            tr = t.binary(Opcode::LShr, tv, k(shift), flags);
        } else {
            sr = s.binary(Opcode::URem, sv, k(divisor));
            tr = t.andOp(tv, k((uint64_t(1) << shift) - 1));
        }
        break;
      }
      case kPlantClamp: {
        // zext(select(v <s 0, 0, trunc(umin(v, C))))
        //   ->  zext(trunc(umin(smax(v, 0), C)))   with C < 2^n.
        const unsigned n = static_cast<unsigned>(between(rng, 2, w - 1));
        const ir::Type *narrow = ctx.types().intTy(n);
        const uint64_t limit = between(rng, 0, (uint64_t(1) << n) - 2);
        uint64_t arm = 0;
        if (miss) {
            broken = kArmNotFixed;
            arm = between(rng, limit + 1, (uint64_t(1) << n) - 1);
        }
        ir::InstFlags nuw;
        nuw.nuw = rng.chance(0.5);
        Value *c = s.icmp(ir::ICmpPred::SLT, sv, k(0));
        Value *m = s.umin(sv, k(limit));
        Value *sel = s.select(c, ctx.getInt(n, arm),
                              s.cast(Opcode::Trunc, m, narrow, nuw));
        sr = s.zext(sel, type);
        // The near miss moves the arm under umin(_, C) although C maps
        // it to C.
        Value *clamped = miss ? t.select(t.icmp(ir::ICmpPred::SLT, tv, k(0)),
                                         k(arm), tv)
                              : t.smax(tv, k(0));
        tr = t.zext(t.cast(Opcode::Trunc, t.umin(clamped, k(limit)), narrow,
                           nuw),
                    type);
        break;
      }
      case kPlantUMaxShl: {
        // umax(shl (umax(v, C1), k), C2)  ->  umax(shl v, k, C2)  with
        // C1 << k neither wrapping nor above C2.
        const unsigned shift = static_cast<unsigned>(between(rng, 1, w - 1));
        uint64_t c1 = between(rng, 0, (ones >> shift));
        uint64_t c2 = between(rng, c1 << shift, ones);
        ir::InstFlags flags;
        flags.nuw = rng.chance(0.5);
        if (miss && rng.chance(0.5)) {
            // A wrapped C1 << k would make every nuw shift poison.
            broken = kShiftWraps;
            c1 = between(rng, (ones >> shift) + 1, ones);
            c2 = (c1 << shift) & ones;
            flags.nuw = false;
        } else if (miss) {
            broken = kShiftExceeds;
            c1 = between(rng, 1, ones >> shift);
            c2 = between(rng, 0, (c1 << shift) - 1);
        }
        sr = s.umax(s.shl(s.umax(sv, k(c1)), k(shift), flags), k(c2));
        tr = t.umax(t.shl(tv, k(shift), flags), k(c2));
        break;
      }
      case kPlantSatChain: {
        // uadd.sat(uadd.sat(v, C1), C2)  ->  uadd.sat(v, C1 + C2), and
        // usub.sat likewise, while C1 + C2 does not overflow.
        uint64_t c1 = between(rng, 0, ones);
        uint64_t c2 = between(rng, 0, ones - c1);
        Intrinsic op = rng.chance(0.5) ? Intrinsic::UAddSat
                                       : Intrinsic::USubSat;
        if (miss && c1 > 0) {
            broken = kSumSaturates;
            op = Intrinsic::UAddSat;
            c2 = between(rng, ones - c1 + 1, ones);
        }
        sr = s.intrinsic(op, {s.intrinsic(op, {sv, k(c1)}), k(c2)});
        tr = t.intrinsic(op, {tv, k(c1 + c2)});
        break;
      }
      case kNumPlants:
        break;
    }
    s.ret(sr);
    t.ret(tr);
    // These builders numbered their values from 0 again; let
    // numberValues() name every value once.
    for (ir::Function *fn : {&src, &tgt})
        for (const auto &inst : fn->entry()->instructions())
            inst->setName("");
    return broken;
}

// ---------------------------------------------------------------------
// The exhaustive oracle and one fuzzed pair
// ---------------------------------------------------------------------

/**
 * Does the target violate refinement of the source on one input? UB
 * in the source allows anything, UB in the target never; a poison
 * source lane allows anything in that lane, and a target lane may be
 * neither poison nor different.
 */
bool
violates(const interp::PlanResult &s, const interp::PlanResult &t)
{
    if (s.ub)
        return false;
    if (t.ub)
        return true;
    for (uint32_t lane = 0; lane < s.ret_lanes; ++lane) {
        if (s.ret[lane].poison)
            continue;
        if (t.ret[lane].poison ||
            s.ret[lane].bits.zext() != t.ret[lane].bits.zext())
            return true;
    }
    return false;
}

/** Pair kinds: the mutations, then the planted rule shapes. */
constexpr unsigned kNumKinds = unsigned(kNumMutations) + kNumPlants;

struct PairResult
{
    Mutation kind = kNumMutations; ///< kNumMutations for a planted pair
    Plant plant = kNumPlants;      ///< kNumPlants for a mutation
    NearMiss near_miss = kNoNearMiss;
    std::string src_text;
    std::string tgt_text;
    std::string error; ///< a pair the harness itself could not run
    verify::RefinementResult sat;
    bool oracle_refines = true;
    bool replays = true; ///< the SAT counterexample violates concretely
};

PairResult
runPair(uint64_t seed, uint64_t index, unsigned max_hard_width,
        const verify::RefineOptions &options)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + index);
    PairResult out;
    const unsigned kind = index % kNumKinds;
    ir::Context ctx;
    std::unique_ptr<ir::Function> src, tgt;
    if (kind >= kNumMutations) {
        out.plant = static_cast<Plant>(kind - kNumMutations);
        src = generate(ctx, rng, max_hard_width);
        tgt = src->clone("tgt");
        out.near_miss = plant(rng, out.plant, max_hard_width, *src, *tgt);
    } else {
        out.kind = static_cast<Mutation>(kind);
        do {
            src = generate(ctx, rng, max_hard_width);
            tgt = src->clone("tgt");
        } while (!mutate(rng, out.kind, *src, *tgt));
    }
    src->numberValues();
    tgt->numberValues();
    out.src_text = ir::printFunction(*src);
    out.tgt_text = ir::printFunction(*tgt);

    out.sat = verify::checkRefinement(*src, *tgt, options);
    if (out.sat.backend != "sat")
        out.error = "decided by the " + out.sat.backend + " backend";

    const interp::ExecPlan sp = interp::ExecPlan::compile(*src);
    const interp::ExecPlan tp = interp::ExecPlan::compile(*tgt);
    interp::ExecFrame sf = sp.makeFrame();
    interp::ExecFrame tf = tp.makeFrame();
    const uint64_t inputs = uint64_t(1) << sp.inputBits();
    for (uint64_t i = 0; i < inputs && out.oracle_refines; ++i)
        out.oracle_refines =
            !violates(sp.runExhaustive(sf, i), tp.runExhaustive(tf, i));
    if (out.sat.counterexample) {
        const interp::ExecutionInput &input = out.sat.counterexample->input;
        out.replays = violates(sp.run(sf, input), tp.run(tf, input));
    }
    return out;
}

struct Budget
{
    uint64_t pairs = 2000;
    uint64_t seed = 3;
    unsigned max_hard_width = 8; ///< widest generated mul and div/rem
};

/** The ctest slice, or LPO_VERIFIER_FUZZ=<pairs>[,<seed>]. */
Budget
budgetFromEnvironment()
{
    Budget budget;
    const char *spec = std::getenv("LPO_VERIFIER_FUZZ");
    if (!spec || !*spec)
        return budget;
    char *end = nullptr;
    budget.pairs = std::strtoull(spec, &end, 10);
    if (*end == ',')
        budget.seed = std::strtoull(end + 1, nullptr, 10);
    budget.max_hard_width = 16;
    return budget;
}

} // namespace

TEST(VerifierFuzz, SatAgreesWithExhaustiveExecPlan)
{
    const Budget budget = budgetFromEnvironment();
    verify::RefineOptions options;
    options.num_threads = 1;
    options.conflict_budget = 100'000;

    std::vector<PairResult> results(budget.pairs);
    {
        TaskScope scope(0);
        const uint64_t chunk = 8;
        for (uint64_t begin = 0; begin < budget.pairs; begin += chunk) {
            scope.submit([&, begin] {
                const uint64_t end = std::min(begin + chunk, budget.pairs);
                for (uint64_t i = begin; i < end; ++i)
                    results[i] = runPair(budget.seed, i,
                                         budget.max_hard_width, options);
            });
        }
        scope.wait();
    }

    uint64_t correct = 0, incorrect = 0, undecided = 0;
    uint64_t folded = 0, solved = 0;
    uint64_t verdicts[kNumMutations][2] = {}; ///< [kind][proved]
    uint64_t planted_valid[kNumPlants] = {};
    uint64_t fired[kNumPlants] = {}; ///< of those, decided by terms
    uint64_t refuted[kNumNearMisses] = {};
    for (uint64_t i = 0; i < budget.pairs; ++i) {
        const PairResult &r = results[i];
        const bool planted = r.plant != kNumPlants;
        const std::string name =
            !planted ? kMutationNames[r.kind]
            : r.near_miss == kNoNearMiss
                ? std::string(kPlantNames[r.plant])
                : std::string(kPlantNames[r.plant]) + ", " +
                      kNearMissNames[r.near_miss];
        const std::string pair = "pair " + std::to_string(i) + " (" + name +
                                 ")\n" + r.src_text + r.tgt_text;
        ASSERT_TRUE(r.error.empty()) << r.error << ": " << pair;
        if (r.sat.verdict == verify::Verdict::Timeout) {
            ++undecided;
            std::cout << "undecided: " << pair;
            continue;
        }
        const bool proved = r.sat.verdict == verify::Verdict::Correct;
        ASSERT_TRUE(proved || r.sat.verdict == verify::Verdict::Incorrect)
            << r.sat.detail << ": " << pair;
        EXPECT_EQ(proved, r.oracle_refines)
            << "SAT says " << (proved ? "Correct" : "Incorrect") << ": "
            << pair;
        EXPECT_TRUE(r.replays)
            << "counterexample does not replay (source "
            << r.sat.counterexample->source_value << ", target "
            << r.sat.counterexample->target_value << "): " << pair;
        (proved ? correct : incorrect) += 1;
        if (planted && r.near_miss == kNoNearMiss) {
            // A rule instance holds; it fired if its canonical form met
            // it in the term DAG (a degenerate prefix, e.g. a value the
            // terms cannot bound, may leave it to the solver).
            ++planted_valid[r.plant];
            fired[r.plant] += r.sat.work.term_decided;
        } else if (planted) {
            refuted[r.near_miss] += !proved;
        } else {
            ++verdicts[r.kind][proved];
        }
        folded += proved && r.sat.work.circuit_emitted == 0;
        solved += r.sat.work.conflicts > 0;
    }

    std::cout << "verifier fuzz: seed " << budget.seed << ", "
              << budget.pairs << " pairs: " << correct << " correct ("
              << folded << " folded), " << incorrect << " incorrect, "
              << undecided << " undecided; " << solved
              << " reached conflicts\n";
    EXPECT_LE(undecided * 100, budget.pairs) << "over 1% undecided";
    EXPECT_GT(folded, 0u) << "no miter folded before the solver";
    EXPECT_GT(solved, 0u) << "no query reached a conflict";
    // A valid reassociation must prove at least once (it can still be
    // refuted, by both sides: where a freeze reads a value whose flags
    // it dropped, freeze-to-zero tells poison from the plain value);
    // every other kind must be refuted at least once.
    for (unsigned k = 0; k < kNumMutations; ++k) {
        const bool proved = k == kValidReassociation;
        EXPECT_GT(verdicts[k][proved], 0u)
            << kMutationNames[k]
            << (proved ? " never proved" : " never refuted");
    }
    // Every planted rule fires, and every side condition's near miss
    // is refuted, at least once.
    for (unsigned k = 0; k < kNumPlants; ++k)
        EXPECT_GT(fired[k], 0u) << kPlantNames[k] << " never fired";
    for (unsigned k = 0; k < kNumNearMisses; ++k)
        EXPECT_GT(refuted[k], 0u) << kNearMissNames[k] << " never refuted";
    std::cout << "planted rules fired:";
    for (unsigned k = 0; k < kNumPlants; ++k)
        std::cout << " " << fired[k] << "/" << planted_valid[k];
    std::cout << "; near misses refuted:";
    for (unsigned k = 0; k < kNumNearMisses; ++k)
        std::cout << " " << refuted[k];
    std::cout << "\n";
}
