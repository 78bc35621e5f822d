/**
 * @file
 * Rule-driven equality saturation.
 *
 * Two rule sources feed the e-graph:
 *  - native rewrites, matched directly on e-nodes (associativity,
 *    identities, absorption, icmp/select/min-max folds; commutativity
 *    is free via the unique table's canonical operand order);
 *  - directed function-level rewrites, replayed by applying them to
 *    the original sequence and to the current best extraction and
 *    inserting the rewritten function unioned with the root: the new
 *    algebraic rule set (algebraicRules, written against the
 *    ir/pattern.h matchers) and the full llm::rewriteLibrary().
 *
 * The loop runs under explicit budgets; see DESIGN.md, "Budget
 * semantics": no rewrite is applied unless the node count stays
 * within the budget, so `EGraph::numNodes() <= max_nodes` holds
 * throughout saturation whenever the initial function fit.
 */
#ifndef LPO_EGRAPH_RULES_H
#define LPO_EGRAPH_RULES_H

#include <memory>

#include "egraph/egraph.h"
#include "llm/rewrite_library.h"

namespace lpo::egraph {

/** Saturation budgets. */
struct SaturationLimits
{
    /** Max passes of (native rules + directed replay). */
    unsigned max_iterations = 8;
    /**
     * Ceiling on EGraph::numNodes(). Rewrites that could push the
     * graph past it are skipped (the budget must exceed the seed
     * function's own node count to allow any rewriting at all).
     */
    size_t max_nodes = 2048;
};

/** What the saturation loop did. */
struct SaturationStats
{
    unsigned iterations = 0;
    unsigned extractions = 0;           ///< best-cost relaxations run
    unsigned replays = 0;               ///< directed-rule replays run
    uint64_t native_applications = 0;   ///< native rewrites applied
    uint64_t replay_applications = 0;   ///< directed rewrites unioned
    size_t nodes = 0;                   ///< EGraph::numNodes() at the end
    uint64_t merges = 0;                ///< EGraph::mergeCount() at the end
    bool node_budget_hit = false;       ///< a rewrite was skipped
    bool saturated = false;             ///< fixpoint before budgets
};

/**
 * The new algebraic rule set (directed, function-level, written
 * against the ir/pattern.h matchers). Sound refinements usable by any
 * directed-rewrite client; the e-graph replays them during
 * saturation.
 */
const std::vector<llm::RewriteRule> &algebraicRules();

/**
 * Saturate @p graph around @p root (the class of @p seq's returned
 * value) under @p limits. @p seq is the original sequence: directed
 * rules are replayed against it verbatim on the first pass, then
 * against the best extraction on later passes. An iteration whose
 * best is the function replayed last (up to value names) skips the
 * replay, which could add nothing, but keeps its budget check.
 *
 * When @p best is given, it receives the cheapest function computing
 * @p root at the end, named and typed like @p seq — taken from the
 * last iteration's extraction when the graph has not changed since —
 * or nullptr when that function is @p seq itself up to value names
 * (nothing cheaper was found) or has no finite-cost term.
 */
SaturationStats saturate(EGraph &graph, ClassId root,
                         const ir::Function &seq,
                         const SaturationLimits &limits = {},
                         std::unique_ptr<ir::Function> *best = nullptr);

/**
 * The e-graph proposer's consult: insert @p seq into this thread's
 * reused graph, saturate under @p limits and return saturate()'s best
 * (nullptr when @p seq is unsupported or is its own best).
 * @p stats, when given, receives what the saturation loop did.
 */
std::unique_ptr<ir::Function>
bestEquivalent(const ir::Function &seq, const SaturationLimits &limits,
               SaturationStats *stats = nullptr);

} // namespace lpo::egraph

#endif // LPO_EGRAPH_RULES_H
