#include "ir/ir_verifier.h"

#include <algorithm>
#include <optional>
#include <string_view>

namespace lpo::ir {
namespace {

void
checkTypes(const Instruction *inst, std::vector<VerifierIssue> &issues)
{
    auto complain = [&](std::string message) {
        issues.push_back({std::move(message), inst});
    };
    const Type *type = inst->type();
    switch (inst->op()) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::UDiv: case Opcode::SDiv: case Opcode::URem:
      case Opcode::SRem: case Opcode::Shl: case Opcode::LShr:
      case Opcode::AShr: case Opcode::And: case Opcode::Or:
      case Opcode::Xor:
        if (inst->numOperands() != 2 ||
            inst->operand(0)->type() != type ||
            inst->operand(1)->type() != type || !type->isIntOrIntVector())
            complain("malformed integer binary operation");
        break;
      case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
      case Opcode::FDiv:
        if (inst->numOperands() != 2 ||
            inst->operand(0)->type() != type ||
            inst->operand(1)->type() != type || !type->isFPOrFPVector())
            complain("malformed floating-point binary operation");
        break;
      case Opcode::ICmp:
        if (inst->numOperands() != 2 ||
            inst->operand(0)->type() != inst->operand(1)->type() ||
            !type->isIntOrIntVector() ||
            type->scalarType()->intWidth() != 1)
            complain("malformed icmp");
        break;
      case Opcode::FCmp:
        if (inst->numOperands() != 2 ||
            inst->operand(0)->type() != inst->operand(1)->type() ||
            !inst->operand(0)->type()->isFPOrFPVector())
            complain("malformed fcmp");
        break;
      case Opcode::Select: {
        if (inst->numOperands() != 3 ||
            inst->operand(1)->type() != type ||
            inst->operand(2)->type() != type) {
            complain("malformed select");
            break;
        }
        const Type *cond = inst->operand(0)->type();
        bool ok = cond->isBool() ||
            (cond->isVector() && cond->scalarType()->isBool() &&
             type->isVector() && cond->lanes() == type->lanes());
        if (!ok)
            complain("select condition has wrong type");
        break;
      }
      case Opcode::Trunc:
        if (inst->numOperands() != 1 ||
            !inst->operand(0)->type()->isIntOrIntVector() ||
            type->scalarType()->intWidth() >=
                inst->operand(0)->type()->scalarType()->intWidth())
            complain("malformed trunc");
        break;
      case Opcode::ZExt: case Opcode::SExt:
        if (inst->numOperands() != 1 ||
            !inst->operand(0)->type()->isIntOrIntVector() ||
            type->scalarType()->intWidth() <=
                inst->operand(0)->type()->scalarType()->intWidth())
            complain("malformed extension");
        break;
      case Opcode::Freeze:
        if (inst->numOperands() != 1 ||
            inst->operand(0)->type() != type)
            complain("malformed freeze");
        break;
      case Opcode::Call:
        if (inst->intrinsic() == Intrinsic::None)
            complain("call without an intrinsic");
        break;
      case Opcode::Load:
        if (inst->numOperands() != 1 ||
            !inst->operand(0)->type()->isPtr())
            complain("malformed load");
        break;
      case Opcode::Store:
        if (inst->numOperands() != 2 ||
            !inst->operand(1)->type()->isPtr() || !type->isVoid())
            complain("malformed store");
        break;
      case Opcode::Gep:
        if (inst->numOperands() != 2 ||
            !inst->operand(0)->type()->isPtr() ||
            !inst->operand(1)->type()->isInt() || !type->isPtr() ||
            !inst->accessType())
            complain("malformed getelementptr");
        break;
      case Opcode::Phi:
        if (inst->numOperands() == 0 ||
            inst->phiLabels().size() != inst->numOperands())
            complain("malformed phi");
        break;
      case Opcode::Br:
        if (!(inst->numOperands() == 0 && inst->brLabels().size() == 1) &&
            !(inst->numOperands() == 1 && inst->brLabels().size() == 2 &&
              inst->operand(0)->type()->isBool()))
            complain("malformed br");
        break;
      case Opcode::Ret:
        break;
    }
}

} // namespace

std::vector<VerifierIssue>
verifyFunction(const Function &fn)
{
    std::vector<VerifierIssue> issues;
    if (fn.blocks().empty()) {
        issues.push_back({"function has no basic blocks", nullptr});
        return issues;
    }

    // Every definition with its place in program order: arguments,
    // then each block's instructions. A non-phi operand must come
    // earlier in that order; a phi operand (phis may refer forward)
    // anywhere in it.
    std::vector<std::pair<const Value *, size_t>> defs;
    for (const auto &arg : fn.args())
        defs.push_back({arg.get(), defs.size()});
    for (const auto &bb : fn.blocks())
        for (const auto &inst : bb->instructions())
            defs.push_back({inst.get(), defs.size()});
    std::sort(defs.begin(), defs.end());
    auto placeOf = [&](const Value *v) -> std::optional<size_t> {
        auto it = std::lower_bound(
            defs.begin(), defs.end(), std::pair<const Value *, size_t>{v, 0});
        if (it == defs.end() || it->first != v)
            return std::nullopt;
        return it->second;
    };
    std::vector<std::string_view> labels;
    for (const auto &bb : fn.blocks())
        labels.push_back(bb->label());
    std::sort(labels.begin(), labels.end());
    auto checkLabels = [&](const Instruction *inst,
                           const std::vector<std::string> &targets) {
        for (const std::string &label : targets)
            if (!std::binary_search(labels.begin(), labels.end(),
                                    std::string_view(label)))
                issues.push_back(
                    {"unknown label '%" + label + "'", inst});
    };

    size_t place = fn.numArgs();
    for (const auto &bb : fn.blocks()) {
        if (!bb->terminator())
            issues.push_back({"block '" + bb->label() +
                              "' lacks a terminator", nullptr});
        for (size_t i = 0; i < bb->size(); ++i, ++place) {
            const Instruction *inst = bb->at(i);
            if (inst->isTerminator() && i + 1 != bb->size())
                issues.push_back({"terminator not at end of block", inst});
            checkTypes(inst, issues);
            checkLabels(inst, inst->phiLabels());
            checkLabels(inst, inst->brLabels());
            for (const Value *operand : inst->operands()) {
                if (operand->kind() == Value::Kind::Instruction ||
                    operand->kind() == Value::Kind::Argument) {
                    std::optional<size_t> at = placeOf(operand);
                    bool defined = at && (inst->op() == Opcode::Phi ||
                                          *at < place);
                    if (!defined) {
                        issues.push_back(
                            {"use of value '%" + operand->name() +
                             "' before definition", inst});
                    }
                }
            }
        }
    }

    // Return type consistency.
    for (const auto &bb : fn.blocks()) {
        const Instruction *term = bb->terminator();
        if (term && term->op() == Opcode::Ret) {
            if (fn.returnType()->isVoid()) {
                if (term->numOperands() != 0)
                    issues.push_back({"ret with value in void function",
                                      term});
            } else if (term->numOperands() != 1 ||
                       term->operand(0)->type() != fn.returnType()) {
                issues.push_back({"ret type does not match function type",
                                  term});
            }
        }
    }
    return issues;
}

bool
isValid(const Function &fn)
{
    return verifyFunction(fn).empty();
}

} // namespace lpo::ir
