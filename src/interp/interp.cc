#include "interp/interp.h"

#include <cassert>

#include "interp/exec_plan.h"

namespace lpo::interp {

ExecutionResult
execute(const ir::Function &fn, const ExecutionInput &input,
        unsigned step_limit)
{
    assert(input.args.size() == fn.numArgs() &&
           "argument count mismatch");
    ExecPlan plan = ExecPlan::compile(fn, step_limit);
    ExecFrame frame = plan.makeFrame();
    PlanResult result = plan.run(frame, input);
    return plan.materialize(frame, result);
}

std::string
describeInput(const ir::Function &fn, const ExecutionInput &input)
{
    std::string out;
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const ir::Argument *arg = fn.arg(i);
        out += arg->type()->toString() + " %" + arg->name() + " = ";
        const RtValue &v = input.args[i];
        if (arg->type()->isPtr()) {
            int obj = v.scalar().object_id;
            out += "&obj" + std::to_string(obj);
            if (obj >= 0 && obj < static_cast<int>(input.memory.size())) {
                out += " [";
                const auto &bytes = input.memory[obj].bytes;
                for (size_t b = 0; b < bytes.size() && b < 16; ++b) {
                    if (b)
                        out += " ";
                    out += std::to_string(bytes[b]);
                }
                if (bytes.size() > 16)
                    out += " ...";
                out += "]";
            }
        } else {
            for (size_t lane = 0; lane < v.lanes.size(); ++lane) {
                if (lane)
                    out += ", ";
                const LaneValue &lv = v.lanes[lane];
                if (lv.poison)
                    out += "poison";
                else if (lv.is_fp)
                    out += std::to_string(lv.fp);
                else
                    out += lv.bits.toString();
            }
        }
        out += "\n";
    }
    return out;
}

std::string
describeResult(const ExecutionResult &result)
{
    if (result.ub)
        return "UB (" + result.ub_reason + ")";
    if (!result.ret)
        return "void";
    std::string out;
    for (size_t lane = 0; lane < result.ret->lanes.size(); ++lane) {
        if (lane)
            out += ", ";
        const LaneValue &lv = result.ret->lanes[lane];
        if (lv.poison)
            out += "poison";
        else if (lv.is_fp)
            out += std::to_string(lv.fp);
        else
            out += lv.bits.toString();
    }
    return out;
}

} // namespace lpo::interp
