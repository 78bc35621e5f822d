#include "ir/pattern.h"

#include <array>
#include <cstring>

#include "support/string_utils.h"

namespace lpo::ir {

bool
matchBinary(Value *v, Opcode op, Value **lhs, Value **rhs)
{
    if (v->kind() != Value::Kind::Instruction)
        return false;
    auto *inst = static_cast<Instruction *>(v);
    if (inst->op() != op || inst->numOperands() != 2)
        return false;
    *lhs = inst->operand(0);
    *rhs = inst->operand(1);
    return true;
}

bool
matchICmp(Value *v, ICmpPred *pred, Value **lhs, Value **rhs)
{
    if (v->kind() != Value::Kind::Instruction)
        return false;
    auto *inst = static_cast<Instruction *>(v);
    if (inst->op() != Opcode::ICmp)
        return false;
    *pred = inst->icmpPred();
    *lhs = inst->operand(0);
    *rhs = inst->operand(1);
    return true;
}

bool
matchSelect(Value *v, Value **cond, Value **tval, Value **fval)
{
    if (v->kind() != Value::Kind::Instruction)
        return false;
    auto *inst = static_cast<Instruction *>(v);
    if (inst->op() != Opcode::Select)
        return false;
    *cond = inst->operand(0);
    *tval = inst->operand(1);
    *fval = inst->operand(2);
    return true;
}

bool
matchIntrinsic2(Value *v, Intrinsic intr, Value **lhs, Value **rhs)
{
    if (v->kind() != Value::Kind::Instruction)
        return false;
    auto *inst = static_cast<Instruction *>(v);
    if (inst->op() != Opcode::Call || inst->intrinsic() != intr ||
        inst->numOperands() != 2)
        return false;
    *lhs = inst->operand(0);
    *rhs = inst->operand(1);
    return true;
}

bool
matchCast(Value *v, Opcode op, Value **src)
{
    if (v->kind() != Value::Kind::Instruction)
        return false;
    auto *inst = static_cast<Instruction *>(v);
    if (inst->op() != op || inst->numOperands() != 1)
        return false;
    *src = inst->operand(0);
    return true;
}

bool
matchConstInt(const Value *v, APInt *out)
{
    if (const ConstantInt *ci = asConstIntOrSplat(v)) {
        *out = ci->value();
        return true;
    }
    return false;
}

bool
isZeroInt(const Value *v)
{
    APInt value;
    return matchConstInt(v, &value) && value.isZero();
}

bool
isAllOnesInt(const Value *v)
{
    APInt value;
    return matchConstInt(v, &value) && value.isAllOnes();
}

namespace {

/** fnv1a64 of @p op's name, computed once per opcode. */
uint64_t
opcodeHash(Opcode op)
{
    static const auto hashes = [] {
        std::array<uint64_t, static_cast<size_t>(Opcode::Ret) + 1> table{};
        for (size_t i = 0; i < table.size(); ++i)
            table[i] = fnv1a64(opcodeName(static_cast<Opcode>(i)));
        return table;
    }();
    return hashes[static_cast<size_t>(op)];
}

/** Argument and instruction -> position in the function. */
using Numbering = ValueMap<uint64_t>;

/** Hash a single operand reference relative to the numbering map. */
uint64_t
operandDigest(const Value *operand, const Numbering &numbering)
{
    if (const uint64_t *position = numbering.find(operand))
        return hashCombine(1, *position);
    switch (operand->kind()) {
      case Value::Kind::ConstInt: {
        const auto *ci = static_cast<const ConstantInt *>(operand);
        return hashCombine(2, hashCombine(ci->value().width(),
                                          ci->value().zext()));
      }
      case Value::Kind::ConstFP: {
        double d = static_cast<const ConstantFP *>(operand)->value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        return hashCombine(3, bits);
      }
      case Value::Kind::ConstVector: {
        const auto *cv = static_cast<const ConstantVector *>(operand);
        uint64_t h = 4;
        for (const Value *e : cv->elements())
            h = hashCombine(h, operandDigest(e, numbering));
        return h;
      }
      case Value::Kind::Poison:
        return 5;
      default:
        return 6; // unmapped argument/instruction (shouldn't happen)
    }
}

uint64_t
instructionDigest(const Instruction *inst, const Numbering &numbering)
{
    uint64_t h = opcodeHash(inst->op());
    h = hashCombine(h, inst->type()->nameHash());
    const InstFlags &flags = inst->flags();
    h = hashCombine(h, (uint64_t(flags.nuw) << 0) |
                           (uint64_t(flags.nsw) << 1) |
                           (uint64_t(flags.exact) << 2) |
                           (uint64_t(flags.disjoint) << 3) |
                           (uint64_t(flags.nneg) << 4) |
                           (uint64_t(flags.inbounds) << 5));
    if (inst->op() == Opcode::ICmp)
        h = hashCombine(h, static_cast<uint64_t>(inst->icmpPred()));
    if (inst->op() == Opcode::FCmp)
        h = hashCombine(h, static_cast<uint64_t>(inst->fcmpPred()));
    if (inst->op() == Opcode::Call)
        h = hashCombine(h, static_cast<uint64_t>(inst->intrinsic()));
    if (inst->accessType())
        h = hashCombine(h, inst->accessType()->nameHash());
    for (const Value *operand : inst->operands())
        h = hashCombine(h, operandDigest(operand, numbering));
    return h;
}

/** Arguments plus instructions of @p fn. */
size_t
valueCount(const Function &fn)
{
    size_t count = fn.numArgs();
    for (const auto &bb : fn.blocks())
        count += bb->size();
    return count;
}

} // namespace

uint64_t
structuralHash(const Function &fn)
{
    Numbering numbering(valueCount(fn));
    uint64_t next = 0;
    for (const auto &arg : fn.args())
        numbering.insert(arg.get(), next++);
    uint64_t h = fn.returnType()->nameHash();
    h = hashCombine(h, fn.numArgs());
    // Argument types must be part of the digest: operandDigest maps
    // an argument to its position only, so without this two chains
    // differing solely in argument width (zext i8 vs zext i32 of %0)
    // would collide systematically.
    for (const auto &arg : fn.args())
        h = hashCombine(h, arg->type()->nameHash());
    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->instructions()) {
            h = hashCombine(h, instructionDigest(inst.get(), numbering));
            numbering.insert(inst.get(), next++);
        }
    }
    return h;
}

bool
structurallyEqual(const Function &a, const Function &b)
{
    if (a.returnType() != b.returnType() || a.numArgs() != b.numArgs() ||
        a.blocks().size() != b.blocks().size())
        return false;
    for (unsigned i = 0; i < a.numArgs(); ++i)
        if (a.arg(i)->type() != b.arg(i)->type())
            return false;

    ValueMap<const Value *> map(valueCount(a)); // a-value -> b-value
    for (unsigned i = 0; i < a.numArgs(); ++i)
        map.insert(a.arg(i), b.arg(i));

    // Pre-map instructions by position so phi back-edges (forward
    // references) resolve during the operand comparison below.
    for (size_t bi = 0; bi < a.blocks().size(); ++bi) {
        const BasicBlock *ba = a.blocks()[bi].get();
        const BasicBlock *bb = b.blocks()[bi].get();
        if (ba->size() != bb->size())
            return false;
        for (size_t i = 0; i < ba->size(); ++i)
            map.insert(ba->at(i), bb->at(i));
    }

    for (size_t bi = 0; bi < a.blocks().size(); ++bi) {
        const BasicBlock *ba = a.blocks()[bi].get();
        const BasicBlock *bb = b.blocks()[bi].get();
        for (size_t i = 0; i < ba->size(); ++i) {
            const Instruction *ia = ba->at(i);
            const Instruction *ib = bb->at(i);
            if (ia->op() != ib->op() || ia->type() != ib->type() ||
                !(ia->flags() == ib->flags()) ||
                ia->numOperands() != ib->numOperands() ||
                ia->icmpPred() != ib->icmpPred() ||
                ia->fcmpPred() != ib->fcmpPred() ||
                ia->intrinsic() != ib->intrinsic() ||
                ia->accessType() != ib->accessType() ||
                ia->brLabels() != ib->brLabels() ||
                ia->phiLabels() != ib->phiLabels())
                return false;
            for (unsigned oi = 0; oi < ia->numOperands(); ++oi) {
                const Value *oa = ia->operand(oi);
                const Value *ob = ib->operand(oi);
                if (const Value *const *mapped = map.find(oa)) {
                    if (*mapped != ob)
                        return false;
                } else if (oa != ob) {
                    // Interned constants compare by identity.
                    return false;
                }
            }
        }
    }
    return true;
}

} // namespace lpo::ir
