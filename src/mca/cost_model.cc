#include "mca/cost_model.h"

#include <algorithm>

namespace lpo::mca {

using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;

CpuModel
btver2()
{
    return CpuModel{"btver2", 2.0, 1.3};
}

double
operationLatency(Opcode op, Intrinsic intr, const ir::Type *result_type,
                 const ir::Type *operand_type, const CpuModel &cpu)
{
    double base;
    switch (op) {
      case Opcode::Add: case Opcode::Sub:
      case Opcode::And: case Opcode::Or: case Opcode::Xor:
        base = 1.0;
        break;
      case Opcode::Shl: case Opcode::LShr: case Opcode::AShr:
        base = 1.0;
        break;
      case Opcode::Mul:
        base = 3.0;
        break;
      case Opcode::UDiv: case Opcode::SDiv:
      case Opcode::URem: case Opcode::SRem:
        base = 25.0; // integer division is microcoded
        break;
      case Opcode::FAdd: case Opcode::FSub:
        base = 3.0;
        break;
      case Opcode::FMul:
        base = 5.0;
        break;
      case Opcode::FDiv:
        base = 19.0;
        break;
      case Opcode::ICmp:
        base = 1.0;
        break;
      case Opcode::FCmp:
        base = 2.0;
        break;
      case Opcode::Select:
        base = 1.0; // cmov
        break;
      case Opcode::Trunc:
        base = 0.5; // usually free (register aliasing)
        break;
      case Opcode::ZExt: case Opcode::SExt:
        base = 1.0;
        break;
      case Opcode::Freeze:
        base = 0.0;
        break;
      case Opcode::Call:
        switch (intr) {
          case Intrinsic::UMin: case Intrinsic::UMax:
          case Intrinsic::SMin: case Intrinsic::SMax:
            base = 1.0; // cmp+cmov or pmin/pmax
            break;
          case Intrinsic::Abs:
            base = 1.0;
            break;
          case Intrinsic::CtPop:
            base = 3.0;
            break;
          case Intrinsic::CtLz: case Intrinsic::CtTz:
            base = 2.0;
            break;
          case Intrinsic::FAbs:
            base = 1.0;
            break;
          default:
            base = 2.0;
            break;
        }
        break;
      case Opcode::Load:
        base = 4.0; // L1 hit
        break;
      case Opcode::Store:
        base = 1.0;
        break;
      case Opcode::Gep:
        base = 1.0; // folds into addressing most of the time
        break;
      case Opcode::Phi: case Opcode::Br: case Opcode::Ret:
        base = 0.0;
        break;
      default:
        base = 1.0;
        break;
    }
    // SIMD ops on this narrow core pay a modest penalty but are far
    // cheaper than lane-by-lane scalar execution.
    if (result_type->isVector() ||
        (operand_type && operand_type->isVector()))
        base *= cpu.vector_penalty;
    return base;
}

double
instructionLatency(const Instruction &inst, const CpuModel &cpu)
{
    const ir::Type *operand_type =
        inst.numOperands() > 0 ? inst.operand(0)->type() : nullptr;
    return operationLatency(inst.op(), inst.intrinsic(), inst.type(),
                            operand_type, cpu);
}

void
IncrementalCost::addOperand(const IncrementalCost &operand)
{
    critical_path = std::max(critical_path, operand.critical_path);
    instruction_count += operand.instruction_count;
}

void
IncrementalCost::addOperation(double latency)
{
    critical_path += latency;
    ++instruction_count;
}

double
IncrementalCost::totalCycles(const CpuModel &cpu) const
{
    return std::max(critical_path, instruction_count / cpu.issue_width);
}

CostSummary
analyzeFunction(const ir::Function &fn, const CpuModel &cpu)
{
    CostSummary summary;
    size_t instructions = 0;
    for (const auto &bb : fn.blocks())
        instructions += bb->size();
    ir::ValueMap<double> ready_at(instructions);
    double max_path = 0.0;

    for (const auto &bb : fn.blocks()) {
        for (const auto &inst : bb->instructions()) {
            if (inst->isTerminator())
                continue;
            ++summary.instruction_count;
            double start = 0.0;
            for (const ir::Value *operand : inst->operands())
                if (const double *ready = ready_at.find(operand))
                    start = std::max(start, *ready);
            double done = start + instructionLatency(*inst, cpu);
            ready_at.insert(inst.get(), done);
            max_path = std::max(max_path, done);
        }
    }
    summary.critical_path = max_path;
    summary.issue_bound = summary.instruction_count / cpu.issue_width;
    summary.total_cycles = std::max(summary.critical_path,
                                    summary.issue_bound);
    return summary;
}

} // namespace lpo::mca
