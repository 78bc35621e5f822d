/**
 * @file
 * Concrete IR interpreter with poison / immediate-UB semantics.
 *
 * This is the executable semantics of the IR, implemented once, by
 * ExecPlan (interp/exec_plan.h): the bounded translation-validation
 * backend runs it on concrete inputs, and the verifier fuzzer
 * (tests/test_verifier_fuzz.cc) cross-checks the SAT encoder against
 * it. The rules follow the LLVM LangRef:
 *
 *  - arithmetic is modular; nsw/nuw/exact/disjoint/nneg and
 *    trunc nuw/nsw produce poison when violated;
 *  - shift amounts >= bit width produce poison;
 *  - division by zero (or by poison), and signed-overflow division,
 *    are immediate UB;
 *  - loads out of bounds or through poison pointers are immediate UB;
 *  - poison propagates element-wise through vector operations;
 *  - freeze pins poison lanes to zero (a fixed choice of the
 *    nondeterminism, documented in DESIGN.md);
 *  - undef is conflated with poison throughout the system.
 */
#ifndef LPO_INTERP_INTERP_H
#define LPO_INTERP_INTERP_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/module.h"

namespace lpo::interp {

/** One scalar lane of a runtime value. */
struct LaneValue
{
    bool poison = false;
    bool is_fp = false;
    lpo::APInt bits;   ///< integer / bool payload (also ptr offset)
    double fp = 0.0;   ///< floating-point payload
    int object_id = -1; ///< pointer provenance (-1 = not a pointer)

    static LaneValue ofInt(lpo::APInt v)
    {
        LaneValue lane;
        lane.bits = v;
        return lane;
    }
    static LaneValue ofFP(double v)
    {
        LaneValue lane;
        lane.is_fp = true;
        lane.fp = v;
        return lane;
    }
    static LaneValue ofPoison()
    {
        LaneValue lane;
        lane.poison = true;
        return lane;
    }
    static LaneValue ofPtr(int object, uint64_t offset)
    {
        LaneValue lane;
        lane.bits = lpo::APInt(64, offset);
        lane.object_id = object;
        return lane;
    }
};

/** A runtime value: one lane for scalars, N lanes for vectors. */
struct RtValue
{
    std::vector<LaneValue> lanes;

    const LaneValue &scalar() const { return lanes.front(); }
    bool anyPoison() const
    {
        for (const LaneValue &lane : lanes)
            if (lane.poison)
                return true;
        return false;
    }

    static RtValue scalarInt(lpo::APInt v)
    {
        return RtValue{{LaneValue::ofInt(v)}};
    }
    static RtValue scalarFP(double v) { return RtValue{{LaneValue::ofFP(v)}}; }
};

/** A memory object backing one pointer argument. */
struct MemoryObject
{
    std::vector<uint8_t> bytes;
};

/** Everything a single execution consumes. */
struct ExecutionInput
{
    std::vector<RtValue> args;
    /** Objects referenced by pointer-typed args via object_id. */
    std::vector<MemoryObject> memory;
};

/** Outcome of one execution. */
struct ExecutionResult
{
    bool ub = false;               ///< immediate undefined behaviour hit
    std::string ub_reason;         ///< human-readable cause when ub
    std::optional<RtValue> ret;    ///< return value (absent for void/ub)
    /** Final memory (after stores), for functions with side effects. */
    std::vector<MemoryObject> memory;
};

/**
 * Execute @p fn on @p input.
 *
 * A thin wrapper that compiles @p fn and runs the plan once (see
 * interp/exec_plan.h), so every caller exercises the production
 * evaluation path. Batch callers should compile a plan themselves and
 * reuse an ExecFrame across inputs.
 *
 * @param step_limit aborts looping functions; exceeding it is
 *        reported as UB with reason "step limit".
 */
ExecutionResult execute(const ir::Function &fn, const ExecutionInput &input,
                        unsigned step_limit = 100000);

/**
 * Render a counterexample input in the style Alive2 uses for feedback
 * ("i32 %x = 7, ..."), used verbatim in LLM prompts.
 */
std::string describeInput(const ir::Function &fn,
                          const ExecutionInput &input);

/** Render an execution result for counterexample feedback. */
std::string describeResult(const ExecutionResult &result);

} // namespace lpo::interp

#endif // LPO_INTERP_INTERP_H
