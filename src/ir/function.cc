#include "ir/function.h"

#include <cassert>

namespace lpo::ir {

Instruction *
BasicBlock::append(std::unique_ptr<Instruction> inst)
{
    instructions_.push_back(std::move(inst));
    return instructions_.back().get();
}

Instruction *
BasicBlock::insert(size_t index, std::unique_ptr<Instruction> inst)
{
    assert(index <= instructions_.size());
    auto it = instructions_.insert(instructions_.begin() + index,
                                   std::move(inst));
    return it->get();
}

void
BasicBlock::erase(size_t index)
{
    assert(index < instructions_.size());
    instructions_.erase(instructions_.begin() + index);
}

void
BasicBlock::erase(const Instruction *inst)
{
    for (size_t i = 0; i < instructions_.size(); ++i) {
        if (instructions_[i].get() == inst) {
            erase(i);
            return;
        }
    }
    assert(false && "instruction not in block");
}

Instruction *
BasicBlock::terminator() const
{
    if (instructions_.empty())
        return nullptr;
    Instruction *last = instructions_.back().get();
    return last->isTerminator() ? last : nullptr;
}

Function::Function(Context &context, std::string name,
                   const Type *return_type)
    : context_(context), name_(std::move(name)), return_type_(return_type)
{
}

Argument *
Function::addArg(const Type *type, std::string name)
{
    args_.push_back(std::make_unique<Argument>(type, args_.size()));
    args_.back()->setName(std::move(name));
    return args_.back().get();
}

BasicBlock *
Function::addBlock(std::string label)
{
    blocks_.push_back(std::make_unique<BasicBlock>(std::move(label)));
    return blocks_.back().get();
}

BasicBlock *
Function::findBlock(const std::string &label) const
{
    for (const auto &bb : blocks_)
        if (bb->label() == label)
            return bb.get();
    return nullptr;
}

unsigned
Function::instructionCount() const
{
    unsigned count = 0;
    for (const auto &bb : blocks_)
        for (const auto &inst : bb->instructions())
            if (!inst->isTerminator())
                ++count;
    return count;
}

std::map<const Value *, unsigned>
Function::computeUseCounts() const
{
    std::map<const Value *, unsigned> counts;
    for (const auto &bb : blocks_)
        for (const auto &inst : bb->instructions())
            for (const Value *operand : inst->operands())
                ++counts[operand];
    return counts;
}

bool
Function::hasOneUse(const Value *v) const
{
    unsigned count = 0;
    for (const auto &bb : blocks_)
        for (const auto &inst : bb->instructions())
            for (const Value *operand : inst->operands())
                if (operand == v && ++count > 1)
                    return false;
    return count == 1;
}

void
Function::replaceAllUses(const Value *from, Value *to)
{
    for (const auto &bb : blocks_)
        for (const auto &inst : bb->instructions())
            for (unsigned i = 0; i < inst->numOperands(); ++i)
                if (inst->operand(i) == from)
                    inst->setOperand(i, to);
}

namespace {

/** @p type as interned in @p into (null: a same-context copy). */
const Type *
mapType(Context *into, const Type *type)
{
    if (!into || !type)
        return type;
    TypeContext &types = into->types();
    switch (type->kind()) {
      case Type::Kind::Int: return types.intTy(type->intWidth());
      case Type::Kind::Float: return types.floatTy();
      case Type::Kind::Ptr: return types.ptrTy();
      case Type::Kind::Vector:
        return types.vectorTy(mapType(into, type->scalarType()),
                              type->lanes());
      default: return types.voidTy();
    }
}

/** The constant @p c as interned in @p into. */
Value *
mapConstant(Context &into, const Value *c)
{
    const Type *type = mapType(&into, c->type());
    switch (c->kind()) {
      case Value::Kind::ConstInt:
        return into.getInt(type, static_cast<const ConstantInt *>(c)->value());
      case Value::Kind::ConstFP:
        return into.getFP(static_cast<const ConstantFP *>(c)->value());
      case Value::Kind::ConstVector: {
        std::vector<const Value *> elements;
        for (const Value *e : static_cast<const ConstantVector *>(c)->elements())
            elements.push_back(mapConstant(into, e));
        return into.getVector(type, std::move(elements));
      }
      default: return into.getPoison(type);
    }
}

} // namespace

std::unique_ptr<Instruction>
cloneInstruction(const Instruction &inst, const ValueRemap &remap,
                 Context *into)
{
    std::vector<Value *> operands;
    operands.reserve(inst.numOperands());
    for (Value *operand : inst.operands()) {
        if (Value *const *mapped = remap.find(operand))
            operand = *mapped;
        else if (into && operand->isConstant())
            operand = mapConstant(*into, operand);
        operands.push_back(operand);
    }
    auto copy = std::make_unique<Instruction>(
        inst.op(), mapType(into, inst.type()), std::move(operands));
    copy->flags() = inst.flags();
    copy->setICmpPred(inst.icmpPred());
    copy->setFCmpPred(inst.fcmpPred());
    copy->setIntrinsic(inst.intrinsic());
    copy->setAccessType(mapType(into, inst.accessType()));
    copy->setAlign(inst.align());
    copy->setPhiLabels(inst.phiLabels());
    copy->setBrLabels(inst.brLabels());
    return copy;
}

std::unique_ptr<Function>
Function::clone(const std::string &new_name, Context *into) const
{
    auto copy = std::make_unique<Function>(into ? *into : context_, new_name,
                                           mapType(into, return_type_));
    size_t values = args_.size();
    for (const auto &bb : blocks_)
        values += bb->size();
    ValueRemap remap(values);
    copy->args_.reserve(args_.size());
    for (const auto &arg : args_)
        remap.insert(arg.get(),
                     copy->addArg(mapType(into, arg->type()), arg->name()));
    // First pass: clone through the values mapped so far; a phi
    // back-edge (a forward reference) keeps its original operand.
    copy->blocks_.reserve(blocks_.size());
    for (const auto &bb : blocks_) {
        BasicBlock *new_bb = copy->addBlock(bb->label());
        new_bb->reserve(bb->size());
        for (const auto &inst : bb->instructions()) {
            auto new_inst = cloneInstruction(*inst, remap, into);
            new_inst->setName(inst->name());
            remap.insert(inst.get(), new_bb->append(std::move(new_inst)));
        }
    }
    // Second pass: rewrite those through the completed map. Operands
    // already mapped are values of the copy, which the map never holds
    // as keys.
    for (const auto &bb : copy->blocks()) {
        for (const auto &inst : bb->instructions()) {
            for (unsigned i = 0; i < inst->numOperands(); ++i)
                if (Value *const *mapped = remap.find(inst->operand(i)))
                    inst->setOperand(i, *mapped);
        }
    }
    return copy;
}

void
Function::numberValues()
{
    unsigned next = 0;
    for (const auto &arg : args_) {
        if (arg->name().empty())
            arg->setName(std::to_string(next));
        ++next;
    }
    for (const auto &bb : blocks_) {
        for (const auto &inst : bb->instructions()) {
            if (inst->type()->isVoid() || inst->isTerminator())
                continue;
            if (inst->name().empty())
                inst->setName(std::to_string(next));
            ++next;
        }
    }
}

} // namespace lpo::ir
