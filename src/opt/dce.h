/**
 * @file
 * Dead code elimination.
 */
#ifndef LPO_OPT_DCE_H
#define LPO_OPT_DCE_H

#include "ir/function.h"

namespace lpo::opt {

/**
 * Remove instructions whose results are unused and that have no side
 * effects, and then those only they used, to a fixpoint. Linear: use
 * counts are computed once, a worklist follows each erasure to its
 * operands, and each block is compacted once. Instructions on a dead
 * cycle (phis feeding each other) keep a use and stay. @returns number
 * of removals.
 */
unsigned removeDeadInstructions(ir::Function &fn);

} // namespace lpo::opt

#endif // LPO_OPT_DCE_H
