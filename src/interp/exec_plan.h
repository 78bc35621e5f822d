/**
 * @file
 * Pre-compiled batch evaluation engine: the IR's one interpreter.
 *
 * The verification sweep runs up to 2^16 exhaustive or 20,000 sampled
 * inputs per candidate, so per-input overhead (walking the
 * ir::Function, looking operands up by pointer, allocating values)
 * would dominate the whole LPO loop. ExecPlan compiles a function
 * ONCE into a flat program:
 *
 *  - every SSA value (argument, constant, instruction result) gets a
 *    dense slot in a single lane arena; constants are evaluated at
 *    compile time and baked into the arena image;
 *  - every instruction is decoded into a PlanInst with pre-resolved
 *    operand lane offsets, copied flags/predicates, pre-computed lane
 *    counts, cast widths, and element sizes;
 *  - basic blocks become contiguous ranges addressed by index, so
 *    branches and phis never touch labels at run time.
 *
 * Per-input execution is then an index-addressed loop over a reusable
 * ExecFrame: zero map lookups, zero steady-state allocation (the only
 * exception is copying input memory objects for functions that touch
 * memory). test_exec_plan pins the engine's results over the whole
 * benchmark corpus to digests, and test_verifier_fuzz checks it
 * against the SAT encoder, an independent second semantics.
 */
#ifndef LPO_INTERP_EXEC_PLAN_H
#define LPO_INTERP_EXEC_PLAN_H

#include <cstdint>
#include <vector>

#include "interp/interp.h"

namespace lpo::interp {

class ExecPlan;

/**
 * Reusable execution arena shaped for one ExecPlan.
 *
 * Holds one LaneValue per lane of every slot plus the working copy of
 * the memory objects. Create with ExecPlan::makeFrame() and reuse it
 * across runs; results returned by run()/runExhaustive() point into
 * the frame and stay valid until it is reused or destroyed.
 */
class ExecFrame
{
  private:
    friend class ExecPlan;
    std::vector<LaneValue> lanes_;
    std::vector<MemoryObject> memory_;
};

/**
 * Non-owning view of one run's outcome.
 *
 * @c ret points into the frame's lane arena; materialize with
 * ExecPlan::materialize() when an owning ExecutionResult is needed
 * (e.g. for counterexample rendering).
 */
struct PlanResult
{
    bool ub = false;
    bool has_ret = false;
    const char *ub_reason = "";
    const LaneValue *ret = nullptr;
    uint32_t ret_lanes = 0;
};

/** A function compiled for repeated concrete execution. */
class ExecPlan
{
  public:
    /** Compile @p fn. The plan holds no reference to @p fn afterwards. */
    static ExecPlan compile(const ir::Function &fn,
                            unsigned step_limit = 100000);

    /** A fresh frame with constants baked in. */
    ExecFrame makeFrame() const;

    /** Execute with explicit inputs (copied into the frame). */
    PlanResult run(ExecFrame &frame, const ExecutionInput &input) const;

    /**
     * Integer-only fast path for exhaustive sweeps: decode @p index
     * over the flattened argument bits (same layout the refinement
     * checker's decodeExhaustive uses) directly into the frame and
     * execute. Only valid when exhaustiveCapable().
     */
    PlanResult runExhaustive(ExecFrame &frame, uint64_t index) const;

    /** Convert a PlanResult into an owning ExecutionResult. */
    ExecutionResult materialize(const ExecFrame &frame,
                                const PlanResult &result) const;

    /** True when every argument is an integer scalar or vector. */
    bool exhaustiveCapable() const { return exhaustive_ok_; }
    /** Total integer input bits (valid when exhaustiveCapable()). */
    unsigned inputBits() const { return input_bits_; }
    unsigned numArgs() const { return num_args_; }

    // ----- internal representation (public for the implementation) --
    struct SlotInfo
    {
        uint32_t offset = 0; ///< first lane in the arena
        uint32_t lanes = 0;
    };

    /** One decoded instruction. */
    struct PlanInst
    {
        ir::Opcode op;
        ir::ICmpPred icmp_pred = ir::ICmpPred::EQ;
        ir::FCmpPred fcmp_pred = ir::FCmpPred::OEQ;
        ir::Intrinsic intrinsic = ir::Intrinsic::None;
        ir::InstFlags flags;
        uint8_t num_operands = 0;
        uint32_t op_off[3] = {0, 0, 0};   ///< operand lane offsets
        uint32_t op_lanes[3] = {0, 0, 0}; ///< operand lane counts
        uint32_t dest_off = 0;
        uint32_t dest_lanes = 0;
        // Pre-decoded per-opcode data.
        uint8_t cast_width = 0;     ///< trunc/zext/sext destination width
        bool scalar_cond = false;   ///< select with scalar i1 condition
        bool is_signed_divrem = false;
        LaneValue freeze_fill;      ///< freeze: replacement for poison
        int64_t elem_size = 0;      ///< gep element size (bytes)
        uint32_t access_bytes = 0;  ///< load/store total byte size
        uint32_t elem_bytes = 0;    ///< load/store per-lane byte size
        bool elem_is_fp = false;    ///< load: lanes are doubles
        uint8_t elem_width = 0;     ///< load: integer lane width
        uint32_t br_true = 0;       ///< branch targets (block indices)
        uint32_t br_false = 0;
        /** Phi: (predecessor block index, incoming lane offset). */
        std::vector<std::pair<uint32_t, uint32_t>> phi_incoming;
    };

  private:
    struct BlockRange
    {
        uint32_t begin = 0;
        uint32_t end = 0;
    };

    /** Exhaustive decode step: one argument lane's width and offset. */
    struct ArgLane
    {
        uint32_t offset;
        uint8_t width;
    };

    PlanResult exec(ExecFrame &frame) const;

    std::vector<SlotInfo> slots_;
    std::vector<LaneValue> init_lanes_; ///< arena image, constants baked
    std::vector<PlanInst> insts_;
    std::vector<BlockRange> blocks_;
    std::vector<SlotInfo> arg_slots_;   ///< per-argument slot info
    std::vector<ArgLane> arg_lanes_;    ///< flattened exhaustive layout
    unsigned num_args_ = 0;
    unsigned step_limit_ = 100000;
    unsigned input_bits_ = 0;
    bool exhaustive_ok_ = true;
    bool touches_memory_ = false;
};

} // namespace lpo::interp

#endif // LPO_INTERP_EXEC_PLAN_H
