#include "ir/printer.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <utility>
#include <vector>

namespace lpo::ir {
namespace {

/**
 * The renaming printFunctionCanonical applies: values (arguments,
 * then named results in block order) print as %0, %1, ..., labels as
 * b0, b1, ... by block position, and the function as @f. Value numbers
 * sit in one vector, open-addressed by the value's address; one
 * instance per thread is reused across prints.
 */
class CanonicalNames
{
  public:
    void
    assign(const Function &fn)
    {
        size_t count = fn.numArgs();
        for (const auto &bb : fn.blocks())
            count += bb->size();
        shift_ = 60;
        while ((size_t(1) << (64 - shift_)) < 2 * count)
            --shift_;
        slots_.assign(size_t(1) << (64 - shift_), Slot{});
        labels_.clear();
        unsigned next = 0;
        for (unsigned i = 0; i < fn.numArgs(); ++i)
            insert(fn.arg(i), next++);
        for (const auto &bb : fn.blocks()) {
            labels_.push_back(bb->label());
            for (const auto &inst : bb->instructions())
                if (!inst->type()->isVoid() && !inst->isTerminator())
                    insert(inst.get(), next++);
        }
    }

    /** The number of @p v, or -1 for a value of another function. */
    long
    numberOf(const Value *v) const
    {
        const Slot &slot = slots_[probe(v)];
        return slot.value ? long(slot.number) : -1;
    }

    /** The position of the first block labelled @p label, or -1. */
    long
    blockOf(std::string_view label) const
    {
        auto it = std::find(labels_.begin(), labels_.end(), label);
        return it != labels_.end() ? long(it - labels_.begin()) : -1;
    }

  private:
    struct Slot
    {
        const Value *value = nullptr;
        unsigned number = 0;
    };

    /** The slot holding @p v, or the empty slot where it goes. */
    size_t
    probe(const Value *v) const
    {
        size_t mask = slots_.size() - 1;
        size_t i = (reinterpret_cast<uintptr_t>(v) * 0x9e3779b97f4a7c15ull) >>
                   shift_;
        while (slots_[i].value && slots_[i].value != v)
            i = (i + 1) & mask;
        return i;
    }

    void
    insert(const Value *v, unsigned number)
    {
        Slot &slot = slots_[probe(v)];
        if (!slot.value)
            slot = {v, number};
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 60;
    std::vector<std::string_view> labels_;
};

bool
isZeroConstant(const Value *v)
{
    switch (v->kind()) {
      case Value::Kind::ConstInt:
        return static_cast<const ConstantInt *>(v)->value().isZero();
      case Value::Kind::ConstFP:
        return static_cast<const ConstantFP *>(v)->value() == 0.0;
      case Value::Kind::ConstVector: {
        for (const Value *e :
             static_cast<const ConstantVector *>(v)->elements()) {
            if (!isZeroConstant(e))
                return false;
        }
        return true;
      }
      default:
        return false;
    }
}

/** Appends IR text to one buffer, under canonical names when given. */
class Printer
{
  public:
    Printer(std::string &out, const CanonicalNames *names)
        : out_(out), names_(names)
    {}

    void
    function(const Function &fn)
    {
        out_ += "define ";
        out_ += fn.returnType()->toString();
        out_ += " @";
        out_ += names_ ? std::string_view("f") : std::string_view(fn.name());
        out_ += '(';
        for (unsigned i = 0; i < fn.numArgs(); ++i) {
            if (i)
                out_ += ", ";
            typedRef(fn.arg(i));
        }
        out_ += ") {\n";
        bool first = true;
        for (const auto &bb : fn.blocks()) {
            if (!first || fn.blocks().size() > 1) {
                label(bb->label());
                out_ += ":\n";
            }
            first = false;
            for (const auto &inst : bb->instructions()) {
                out_ += "  ";
                instruction(inst.get());
                out_ += '\n';
            }
        }
        out_ += "}\n";
    }

    void
    instruction(const Instruction *inst)
    {
        if (!inst->type()->isVoid() && !inst->isTerminator()) {
            valueRef(inst);
            out_ += " = ";
        }
        const InstFlags &flags = inst->flags();
        switch (inst->op()) {
          case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
          case Opcode::Shl:
            out_ += opcodeName(inst->op());
            flag(flags.nuw, " nuw");
            flag(flags.nsw, " nsw");
            binaryOperands(inst);
            return;
          case Opcode::UDiv: case Opcode::SDiv:
          case Opcode::LShr: case Opcode::AShr:
            out_ += opcodeName(inst->op());
            flag(flags.exact, " exact");
            binaryOperands(inst);
            return;
          case Opcode::URem: case Opcode::SRem:
          case Opcode::And: case Opcode::Xor:
          case Opcode::FAdd: case Opcode::FSub:
          case Opcode::FMul: case Opcode::FDiv:
            out_ += opcodeName(inst->op());
            binaryOperands(inst);
            return;
          case Opcode::Or:
            out_ += "or";
            flag(flags.disjoint, " disjoint");
            binaryOperands(inst);
            return;
          case Opcode::ICmp:
            out_ += "icmp ";
            out_ += icmpPredName(inst->icmpPred());
            binaryOperands(inst);
            return;
          case Opcode::FCmp:
            out_ += "fcmp ";
            out_ += fcmpPredName(inst->fcmpPred());
            binaryOperands(inst);
            return;
          case Opcode::Select:
            out_ += "select ";
            typedRef(inst->operand(0));
            out_ += ", ";
            typedRef(inst->operand(1));
            out_ += ", ";
            typedRef(inst->operand(2));
            return;
          case Opcode::Trunc:
            out_ += "trunc";
            flag(flags.nuw, " nuw");
            flag(flags.nsw, " nsw");
            castOperand(inst);
            return;
          case Opcode::ZExt:
            out_ += "zext";
            flag(flags.nneg, " nneg");
            castOperand(inst);
            return;
          case Opcode::SExt:
            out_ += "sext";
            castOperand(inst);
            return;
          case Opcode::Freeze:
            out_ += "freeze ";
            typedRef(inst->operand(0));
            return;
          case Opcode::Call:
            flag(flags.tail, "tail ");
            out_ += "call ";
            out_ += inst->type()->toString();
            out_ += " @";
            out_ += intrinsicName(inst->intrinsic());
            // The type suffix follows the leading argument's type (fabs
            // is keyed on the return type, same thing for our fragment).
            intrinsicSuffix(inst->operand(0)->type());
            out_ += '(';
            for (unsigned i = 0; i < inst->numOperands(); ++i) {
                if (i)
                    out_ += ", ";
                typedRef(inst->operand(i));
            }
            out_ += ')';
            return;
          case Opcode::Load:
            out_ += "load ";
            out_ += inst->type()->toString();
            out_ += ", ";
            typedRef(inst->operand(0));
            align(inst);
            return;
          case Opcode::Store:
            out_ += "store ";
            typedRef(inst->operand(0));
            out_ += ", ";
            typedRef(inst->operand(1));
            align(inst);
            return;
          case Opcode::Gep:
            out_ += "getelementptr";
            flag(flags.inbounds, " inbounds");
            flag(flags.nuw, " nuw");
            out_ += ' ';
            out_ += inst->accessType()->toString();
            for (unsigned i = 0; i < inst->numOperands(); ++i) {
                out_ += ", ";
                typedRef(inst->operand(i));
            }
            return;
          case Opcode::Phi:
            out_ += "phi ";
            out_ += inst->type()->toString();
            out_ += ' ';
            for (unsigned i = 0; i < inst->numOperands(); ++i) {
                if (i)
                    out_ += ", ";
                out_ += "[ ";
                valueRef(inst->operand(i));
                out_ += ", %";
                label(inst->phiLabels()[i]);
                out_ += " ]";
            }
            return;
          case Opcode::Br:
            if (inst->numOperands() == 0) {
                out_ += "br label %";
                label(inst->brLabels()[0]);
                return;
            }
            out_ += "br ";
            typedRef(inst->operand(0));
            out_ += ", label %";
            label(inst->brLabels()[0]);
            out_ += ", label %";
            label(inst->brLabels()[1]);
            return;
          case Opcode::Ret:
            if (inst->numOperands() == 0) {
                out_ += "ret void";
                return;
            }
            out_ += "ret ";
            typedRef(inst->operand(0));
            return;
        }
        assert(false && "unhandled opcode in printer");
    }

    /** A value without its type: a name, or a constant's spelling. */
    void
    valueRef(const Value *v)
    {
        switch (v->kind()) {
          case Value::Kind::Argument:
          case Value::Kind::Instruction: {
            out_ += '%';
            long number = names_ ? names_->numberOf(v) : -1;
            assert((!names_ || number >= 0) && "value of another function");
            if (number >= 0)
                decimal(static_cast<uint64_t>(number));
            else
                out_ += v->name();
            return;
          }
          case Value::Kind::ConstInt: {
            const APInt &value = static_cast<const ConstantInt *>(v)->value();
            if (v->type()->isBool())
                out_ += value.isZero() ? "false" : "true";
            else if (value.width() > 1 && value.isSignBitSet())
                decimal(value.sext());
            else
                decimal(value.zext());
            return;
          }
          case Value::Kind::ConstFP: {
            char buffer[64];
            int n = std::snprintf(buffer, sizeof(buffer), "%e",
                                  static_cast<const ConstantFP *>(v)->value());
            out_.append(buffer, n);
            return;
          }
          case Value::Kind::Poison:
            out_ += "poison";
            return;
          case Value::Kind::ConstVector: {
            const auto *cv = static_cast<const ConstantVector *>(v);
            if (isZeroConstant(cv)) {
                out_ += "zeroinitializer";
                return;
            }
            if (cv->isSplat()) {
                out_ += "splat (";
                typedRef(cv->splatValue());
                out_ += ')';
                return;
            }
            out_ += '<';
            for (size_t i = 0; i < cv->elements().size(); ++i) {
                if (i)
                    out_ += ", ";
                typedRef(cv->elements()[i]);
            }
            out_ += '>';
            return;
          }
        }
        out_ += '?';
    }

  private:
    /** "i32 255": a value with its type. */
    void
    typedRef(const Value *v)
    {
        out_ += v->type()->toString();
        out_ += ' ';
        valueRef(v);
    }

    /** " <ty> a, b": the operands of a binary operator or compare. */
    void
    binaryOperands(const Instruction *inst)
    {
        out_ += ' ';
        typedRef(inst->operand(0));
        out_ += ", ";
        valueRef(inst->operand(1));
    }

    void
    castOperand(const Instruction *inst)
    {
        out_ += ' ';
        typedRef(inst->operand(0));
        out_ += " to ";
        out_ += inst->type()->toString();
    }

    void
    align(const Instruction *inst)
    {
        if (inst->align()) {
            out_ += ", align ";
            decimal(inst->align());
        }
    }

    void
    flag(bool set, std::string_view text)
    {
        if (set)
            out_ += text;
    }

    void
    intrinsicSuffix(const Type *type)
    {
        if (type->isVector()) {
            out_ += ".v";
            decimal(type->lanes());
            out_ += type->scalarType()->toString();
        } else if (type->isFloat()) {
            out_ += ".f64";
        } else {
            out_ += '.';
            out_ += type->toString();
        }
    }

    void
    label(const std::string &name)
    {
        long block = names_ ? names_->blockOf(name) : -1;
        assert((!names_ || block >= 0) && "label of no block");
        if (block < 0) {
            out_ += name;
            return;
        }
        out_ += 'b';
        decimal(static_cast<uint64_t>(block));
    }

    template <typename Int>
    void
    decimal(Int value)
    {
        char buffer[24];
        auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
        out_.append(buffer, end);
    }

    std::string &out_;
    const CanonicalNames *names_;
};

/** A capacity guess for @p fn's text, so printing rarely regrows. */
size_t
textSizeHint(const Function &fn)
{
    size_t insts = 0;
    for (const auto &bb : fn.blocks())
        insts += bb->size() + 1;
    return 32 + 16 * fn.numArgs() + 40 * insts;
}

} // namespace

std::string
printValueRef(const Value *v)
{
    std::string out;
    Printer(out, nullptr).valueRef(v);
    return out;
}

std::string
printInstruction(const Instruction *inst)
{
    std::string out;
    Printer(out, nullptr).instruction(inst);
    return out;
}

std::string
printFunction(const Function &fn)
{
    std::string out;
    out.reserve(textSizeHint(fn));
    Printer(out, nullptr).function(fn);
    return out;
}

std::string
printFunctionCanonical(const Function &fn)
{
    thread_local CanonicalNames names;
    names.assign(fn);
    std::string out;
    out.reserve(textSizeHint(fn));
    Printer(out, &names).function(fn);
    return out;
}

std::string
printModule(const Module &module)
{
    std::string out = "; ModuleID = '" + module.name() + "'\n";
    for (const auto &fn : module.functions()) {
        out += '\n';
        out.reserve(out.size() + textSizeHint(*fn));
        Printer(out, nullptr).function(*fn);
    }
    return out;
}

} // namespace lpo::ir
