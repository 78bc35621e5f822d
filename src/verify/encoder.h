/**
 * @file
 * SAT encoding of IR functions for refinement checking.
 *
 * The encoder translates the pure integer fragment (scalar and vector,
 * no memory, no floating point, no control flow) in two steps. First
 * each SSA value becomes, per lane, a hash-consed word-level term plus
 * a 1-bit poison term, and the function as a whole gets an
 * undefined-behaviour term; rewrite rules normalize the terms as they
 * are built, so source and target of a query meet in shared nodes.
 * Only when the refinement miter does not fold to false over the terms
 * is the query bit-blasted into a circuit (CircuitBuilder) for the SAT
 * solver. This is the same fragment Souper reasons about; everything
 * outside it falls back to the bounded concrete backend in refine.cc.
 */
#ifndef LPO_VERIFY_ENCODER_H
#define LPO_VERIFY_ENCODER_H

#include <memory>
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

/** How encodeRefinementQuery answered. */
enum class QueryEncoding {
    Unencodable,    ///< a function leaves the encodable fragment
    DecidedByTerms, ///< the miter folded over terms: no circuit built,
                    ///< the solver holds only the empty clause
    Blasted,        ///< the query was bit-blasted into the solver
};

/**
 * A query's word-level term DAG, kept between queries (DESIGN.md,
 * "Verifier workspace"). encodeEncodableQuery resets it before it
 * builds a query's terms in it, so every query encodes as in a new
 * one, while the DAG's buffers keep the capacity of the largest query
 * encoded in it. One thread uses it at a time. Impl is defined in
 * encoder.cc.
 */
class TermWorkspace
{
  public:
    TermWorkspace();
    ~TermWorkspace();
    TermWorkspace(const TermWorkspace &) = delete;
    TermWorkspace &operator=(const TermWorkspace &) = delete;

    struct Impl;
    Impl &impl() { return *impl_; }

  private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Build the complete refinement-violation query for (src, tgt) into
 * @p builder: shared non-poison arguments, both encodings over them,
 * and the asserted miter
 *
 *   !src.ub && (tgt.ub || exists lane:
 *               !src.poison[l] && (tgt.poison[l] || bits differ))
 *
 * so Unsat means tgt refines src. The miter is first built over terms;
 * when it folds to false there, the query is decided and @p builder
 * gets no node, only the empty clause. Otherwise the whole query is
 * bit-blasted. This is the exact query the SAT backend solves; the
 * throughput benchmark reuses it to measure query sizes.
 *
 * @param shared_args_out when non-null, receives the argument
 *        encoding (for counterexample extraction from the model) of a
 *        blasted query.
 */
QueryEncoding
encodeRefinementQuery(smt::CircuitBuilder &builder, const ir::Function &src,
                      const ir::Function &tgt,
                      std::vector<ValueEnc> *shared_args_out = nullptr);

/**
 * encodeRefinementQuery for a pair already known to be in the
 * encodable fragment, with its terms built in @p terms (reset first):
 * canEncode(src) and canEncode(tgt) must hold (asserted), as the SAT
 * backend's dispatch (usesSatBackend) has checked, so they are not
 * checked again. Never answers Unencodable.
 */
QueryEncoding
encodeEncodableQuery(TermWorkspace &terms, smt::CircuitBuilder &builder,
                     const ir::Function &src, const ir::Function &tgt,
                     std::vector<ValueEnc> *shared_args_out = nullptr);

} // namespace lpo::verify

#endif // LPO_VERIFY_ENCODER_H
