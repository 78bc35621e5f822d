/**
 * @file
 * SAT encoding of IR functions for refinement checking.
 *
 * The encoder translates the pure integer fragment (scalar and vector,
 * no memory, no floating point, no control flow) into a circuit: each
 * SSA value becomes, per lane, a BitVec plus a poison literal, and the
 * function as a whole gets an undefined-behaviour literal. This is the
 * same fragment Souper reasons about; everything outside it falls back
 * to the bounded concrete backend in refine.cc.
 */
#ifndef LPO_VERIFY_ENCODER_H
#define LPO_VERIFY_ENCODER_H

#include <optional>
#include <vector>

#include "ir/function.h"
#include "smt/bitblast.h"

namespace lpo::verify {

/** One encoded SSA lane: value bits + poison flag. */
struct LaneEnc
{
    smt::BitVec bits;
    smt::CLit poison = 0;
};

/** An encoded value: one LaneEnc per vector lane (1 for scalars). */
using ValueEnc = std::vector<LaneEnc>;

/** The encoding of a whole function. */
struct EncodedFunction
{
    std::vector<ValueEnc> args;
    ValueEnc ret;
    smt::CLit ub = 0; ///< true iff execution hits immediate UB
};

/** True if every instruction of @p fn is in the encodable fragment. */
bool canEncode(const ir::Function &fn);

/**
 * Encode @p fn.
 *
 * @param shared_args when non-null, use these as the argument values
 *        (so source and target range over identical inputs); otherwise
 *        fresh non-poison variables are created.
 * @returns nullopt if the function leaves the encodable fragment.
 */
std::optional<EncodedFunction>
encodeFunction(smt::CircuitBuilder &builder, const ir::Function &fn,
               const std::vector<ValueEnc> *shared_args = nullptr);

/**
 * Build the complete refinement-violation query for (src, tgt) into
 * @p builder: fresh shared non-poison arguments, both encodings over
 * them, and the asserted miter
 *
 *   !src.ub && (tgt.ub || exists lane:
 *               !src.poison[l] && (tgt.poison[l] || bits differ))
 *
 * so Unsat means tgt refines src. This is the exact query the SAT
 * backend solves; the throughput benchmark reuses it to measure query
 * sizes.
 *
 * @param shared_args_out when non-null, receives the argument
 *        encoding (for counterexample extraction from the model).
 * @returns false if either function leaves the encodable fragment.
 */
bool encodeRefinementQuery(smt::CircuitBuilder &builder,
                           const ir::Function &src,
                           const ir::Function &tgt,
                           std::vector<ValueEnc> *shared_args_out = nullptr);

} // namespace lpo::verify

#endif // LPO_VERIFY_ENCODER_H
