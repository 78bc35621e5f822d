#include "smt/sat.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "support/failpoint.h"

namespace lpo::smt {

namespace {

/**
 * The Luby sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (0-indexed),
 * the optimal universal restart schedule. Ported from MiniSat's
 * luby() with base 2, returning the power directly.
 */
uint64_t
lubyTerm(uint64_t x)
{
    uint64_t size = 1, seq = 0;
    while (size < x + 1) {
        size = 2 * size + 1;
        ++seq;
    }
    while (size - 1 != x) {
        size = (size - 1) / 2;
        --seq;
        x = x % size;
    }
    return uint64_t(1) << seq;
}

} // namespace

int
SatSolver::newVar()
{
    ++num_vars_;
    assigns_.push_back(Assign::Unassigned);
    levels_.push_back(0);
    reasons_.push_back(-1);
    activities_.push_back(0.0);
    polarity_.push_back(false);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    watches_.resize((num_vars_ + 1) * 2);
    heapInsert(num_vars_);
    return num_vars_;
}

// ---------------------------------------------------------------------
// Decision-order heap
// ---------------------------------------------------------------------

void
SatSolver::heapSwap(size_t i, size_t j)
{
    std::swap(order_heap_[i], order_heap_[j]);
    heap_pos_[order_heap_[i]] = static_cast<int>(i);
    heap_pos_[order_heap_[j]] = static_cast<int>(j);
}

void
SatSolver::heapUp(size_t i)
{
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!heapLess(order_heap_[i], order_heap_[parent]))
            break;
        heapSwap(i, parent);
        i = parent;
    }
}

void
SatSolver::heapDown(size_t i)
{
    for (;;) {
        size_t left = 2 * i + 1;
        size_t right = 2 * i + 2;
        size_t best = i;
        if (left < order_heap_.size() &&
            heapLess(order_heap_[left], order_heap_[best]))
            best = left;
        if (right < order_heap_.size() &&
            heapLess(order_heap_[right], order_heap_[best]))
            best = right;
        if (best == i)
            break;
        heapSwap(i, best);
        i = best;
    }
}

void
SatSolver::heapInsert(int var)
{
    if (heap_pos_[var] != -1)
        return;
    heap_pos_[var] = static_cast<int>(order_heap_.size());
    order_heap_.push_back(var);
    heapUp(order_heap_.size() - 1);
}

int
SatSolver::storeClause(const std::vector<int> &lits, bool learnt,
                       uint32_t lbd, double activity)
{
    Clause clause;
    clause.offset = static_cast<uint32_t>(pool_.size());
    clause.size = static_cast<uint32_t>(lits.size());
    clause.learnt = learnt;
    clause.lbd = lbd;
    clause.activity = activity;
    pool_.insert(pool_.end(), lits.begin(), lits.end());
    clauses_.push_back(clause);
    return static_cast<int>(clauses_.size()) - 1;
}

void
SatSolver::attachClause(int index)
{
    const Clause &clause = clauses_[index];
    assert(clause.size >= 2);
    const int *lits = clauseLits(clause);
    // Binary clauses carry their other literal in the watcher itself
    // (it can never move), so propagation over them touches no clause
    // memory. Longer clauses use the classic two-watch scheme.
    int blocker0 = clause.size == 2 ? lits[1] : -1;
    int blocker1 = clause.size == 2 ? lits[0] : -1;
    watches_[litNeg(lits[0])].push_back(Watcher{index, blocker0});
    watches_[litNeg(lits[1])].push_back(Watcher{index, blocker1});
}

bool
SatSolver::addClause(std::vector<Lit> lits)
{
    if (unsat_)
        return false;
    assert(!lits.empty());
    assert(trail_limits_.empty() &&
           "clauses may only be added at decision level 0");
    // Encode, dedup, and drop tautologies.
    std::vector<int> enc;
    enc.reserve(lits.size());
    for (Lit lit : lits) {
        assert(lit != 0 && std::abs(lit) <= num_vars_);
        enc.push_back(encode(lit));
    }
    std::sort(enc.begin(), enc.end());
    enc.erase(std::unique(enc.begin(), enc.end()), enc.end());
    for (size_t i = 0; i + 1 < enc.size(); ++i)
        if (litVar(enc[i]) == litVar(enc[i + 1]))
            return true; // tautology: v OR !v
    // Remove literals already false at level 0; satisfied => drop.
    std::vector<int> pruned;
    for (int e : enc) {
        Assign value = valueOf(e);
        if (value == Assign::True && levels_[litVar(e)] == 0)
            return true;
        if (value == Assign::False && levels_[litVar(e)] == 0)
            continue;
        pruned.push_back(e);
    }
    if (pruned.empty()) {
        unsat_ = true;
        return false;
    }
    if (pruned.size() == 1) {
        ++clauses_added_;
        if (!enqueue(pruned[0], -1)) {
            unsat_ = true;
            return false;
        }
        if (propagate() != -1) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    ++clauses_added_;
    int ci = storeClause(pruned, false, 0, 0.0);
    attachClause(ci);
    return true;
}

void
SatSolver::addEmptyClause()
{
    if (unsat_)
        return;
    ++clauses_added_;
    unsat_ = true;
}

bool
SatSolver::enqueue(int enc, int reason)
{
    Assign value = valueOf(enc);
    if (value != Assign::Unassigned)
        return value == Assign::True;
    int var = litVar(enc);
    assigns_[var] = (enc & 1) ? Assign::False : Assign::True;
    levels_[var] = static_cast<int>(trail_limits_.size());
    reasons_[var] = reason;
    polarity_[var] = !(enc & 1);
    trail_.push_back(enc);
    return true;
}

int
SatSolver::propagate()
{
    while (propagate_head_ < trail_.size()) {
        int enc = trail_[propagate_head_++];
        ++propagations_;
        std::vector<Watcher> &watch_list = watches_[enc];
        size_t keep = 0;
        for (size_t wi = 0; wi < watch_list.size(); ++wi) {
            Watcher w = watch_list[wi];
            int falsified = litNeg(enc);
            if (w.blocker != -1) {
                // Binary fast path: the watcher already names the only
                // other literal, so satisfied and propagating clauses
                // are handled without dereferencing the clause.
                Assign value = valueOf(w.blocker);
                watch_list[keep++] = w;
                if (value == Assign::True)
                    continue;
                if (value == Assign::Unassigned) {
                    enqueue(w.blocker, w.clause);
                    continue;
                }
                // Conflict. Normalize the stored order (other literal
                // first, falsified literal second) exactly as the
                // general path would have left it, so conflict
                // analysis sees the same literal order either way.
                Clause &clause = clauses_[w.clause];
                int *lits = clauseLits(clause);
                if (lits[0] == falsified)
                    std::swap(lits[0], lits[1]);
                for (size_t rest = wi + 1; rest < watch_list.size();
                     ++rest)
                    watch_list[keep++] = watch_list[rest];
                watch_list.resize(keep);
                propagate_head_ = trail_.size();
                return w.clause;
            }
            Clause &clause = clauses_[w.clause];
            int *lits = clauseLits(clause);
            // Normalize: watched literals are lits[0] and lits[1];
            // the falsified one must be lits[1].
            if (lits[0] == falsified)
                std::swap(lits[0], lits[1]);
            if (valueOf(lits[0]) == Assign::True) {
                watch_list[keep++] = w;
                continue;
            }
            // Find a new watch.
            bool moved = false;
            for (uint32_t k = 2; k < clause.size; ++k) {
                if (valueOf(lits[k]) != Assign::False) {
                    std::swap(lits[1], lits[k]);
                    watches_[litNeg(lits[1])].push_back(
                        Watcher{w.clause, -1});
                    moved = true;
                    break;
                }
            }
            if (moved)
                continue;
            // Unit or conflict.
            watch_list[keep++] = w;
            if (!enqueue(lits[0], w.clause)) {
                // Conflict: keep remaining watches and report.
                for (size_t rest = wi + 1; rest < watch_list.size();
                     ++rest)
                    watch_list[keep++] = watch_list[rest];
                watch_list.resize(keep);
                propagate_head_ = trail_.size();
                return w.clause;
            }
        }
        watch_list.resize(keep);
    }
    return -1;
}

void
SatSolver::bumpVar(int var)
{
    activities_[var] += var_inc_;
    if (activities_[var] > 1e100) {
        for (double &activity : activities_)
            activity *= 1e-100;
        var_inc_ *= 1e-100;
        // Uniform rescaling preserves the heap order exactly.
    }
    if (heap_pos_[var] != -1)
        heapUp(static_cast<size_t>(heap_pos_[var]));
}

void
SatSolver::bumpClause(Clause &clause)
{
    clause.activity += cla_inc_;
    if (clause.activity > 1e20) {
        for (Clause &c : clauses_)
            if (c.learnt)
                c.activity *= 1e-20;
        cla_inc_ *= 1e-20;
    }
}

void
SatSolver::decayActivities()
{
    var_inc_ /= 0.95;
    cla_inc_ /= 0.999;
}

bool
SatSolver::litRedundant(int enc, uint32_t abstract_levels,
                        std::vector<int> &to_clear)
{
    // Recursive (MiniSat "deep") minimization: @p enc is redundant if
    // every literal in its reason chain is already in the learnt
    // clause (seen), at level 0, or itself redundant. Decisions and
    // literals whose level is outside the clause's abstract level set
    // end the chain as failures. Marks made during a failed probe are
    // rolled back; marks from successful probes persist as memoized
    // "reachable from the clause" facts for later probes.
    redundant_stack_.clear();
    redundant_stack_.push_back(enc);
    size_t rollback = to_clear.size();
    while (!redundant_stack_.empty()) {
        int p = redundant_stack_.back();
        redundant_stack_.pop_back();
        assert(reasons_[litVar(p)] != -1);
        const Clause &reason = clauses_[reasons_[litVar(p)]];
        const int *lits = clauseLits(reason);
        // Skip the literal the clause propagated (@p p itself) by
        // variable; binary reasons from the watcher fast path are not
        // position-normalized, so positional skipping would be wrong.
        int skip_var = litVar(p);
        for (uint32_t i = 0; i < reason.size; ++i) {
            int q = lits[i];
            int var = litVar(q);
            if (var == skip_var || seen_[var] || levels_[var] == 0)
                continue;
            if (reasons_[var] == -1 ||
                !(abstractLevel(var) & abstract_levels)) {
                for (size_t j = rollback; j < to_clear.size(); ++j)
                    seen_[to_clear[j]] = 0;
                to_clear.resize(rollback);
                return false;
            }
            seen_[var] = 1;
            to_clear.push_back(var);
            redundant_stack_.push_back(q);
        }
    }
    return true;
}

int
SatSolver::analyze(int conflict, std::vector<int> &learnt, uint32_t *lbd)
{
    // First-UIP conflict analysis. The marker array seen_ is a member
    // scratch buffer: it is all-zero on entry and every mark made here
    // is recorded and cleared again on exit, so no per-conflict
    // allocation or O(num_vars) wipe happens.
    learnt.clear();
    learnt.push_back(0); // placeholder for the asserting literal
    seen_clear_.clear();
    minimize_clear_.clear();
    int counter = 0;
    int enc = -1;
    size_t trail_index = trail_.size();
    int current_level = static_cast<int>(trail_limits_.size());

    int reason_clause = conflict;
    do {
        assert(reason_clause != -1);
        Clause &clause = clauses_[reason_clause];
        if (clause.learnt)
            bumpClause(clause);
        const int *lits = clauseLits(clause);
        // For reason clauses, skip the literal that was propagated
        // (var of @p enc); skipping by variable rather than position
        // keeps this correct for watcher-fast-path binary reasons.
        int skip_var = (enc == -1) ? 0 : litVar(enc);
        for (uint32_t i = 0; i < clause.size; ++i) {
            int q = lits[i];
            int var = litVar(q);
            if (var == skip_var || seen_[var] || levels_[var] == 0)
                continue;
            seen_[var] = 1;
            seen_clear_.push_back(var);
            bumpVar(var);
            if (levels_[var] >= current_level) {
                ++counter;
            } else {
                learnt.push_back(q);
            }
        }
        // Pick the next literal from the trail to resolve on.
        do {
            assert(trail_index > 0);
            enc = trail_[--trail_index];
        } while (!seen_[litVar(enc)]);
        seen_[litVar(enc)] = 0;
        reason_clause = reasons_[litVar(enc)];
        --counter;
    } while (counter > 0);
    learnt[0] = litNeg(enc);

    // Recursive clause minimization: drop literals implied by the
    // rest of the clause through their reason chains. seen_ still
    // marks exactly the vars of learnt[1..]; litRedundant extends it.
    if (learnt.size() > 1) {
        uint32_t abstract_levels = 0;
        for (size_t i = 1; i < learnt.size(); ++i)
            abstract_levels |= abstractLevel(litVar(learnt[i]));
        size_t kept = 1;
        for (size_t i = 1; i < learnt.size(); ++i) {
            int var = litVar(learnt[i]);
            if (reasons_[var] == -1 ||
                !litRedundant(learnt[i], abstract_levels,
                              minimize_clear_))
                learnt[kept++] = learnt[i];
        }
        learnt.resize(kept);
    }

    // LBD: number of distinct decision levels in the final clause.
    // Low-LBD ("glue") clauses connect few levels and are the learnt
    // clauses worth keeping forever.
    if (lbd) {
        lbd_levels_.clear();
        for (int q : learnt) {
            int level = levels_[litVar(q)];
            bool found = false;
            for (int s : lbd_levels_)
                found = found || s == level;
            if (!found)
                lbd_levels_.push_back(level);
        }
        *lbd = static_cast<uint32_t>(lbd_levels_.size());
    }

    // Compute the backtrack level (second-highest level in clause).
    int bt_level = 0;
    if (learnt.size() > 1) {
        size_t max_i = 1;
        for (size_t i = 2; i < learnt.size(); ++i)
            if (levels_[litVar(learnt[i])] >
                levels_[litVar(learnt[max_i])])
                max_i = i;
        std::swap(learnt[1], learnt[max_i]);
        bt_level = levels_[litVar(learnt[1])];
    }

    // Restore the all-zero seen_ invariant (both lists may share
    // entries with in-loop clears; clearing twice is harmless).
    for (int var : seen_clear_)
        seen_[var] = 0;
    for (int var : minimize_clear_)
        seen_[var] = 0;
    return bt_level;
}

void
SatSolver::backtrack(int level)
{
    if (static_cast<int>(trail_limits_.size()) <= level)
        return;
    size_t limit = trail_limits_[level];
    for (size_t i = trail_.size(); i > limit; --i) {
        int var = litVar(trail_[i - 1]);
        assigns_[var] = Assign::Unassigned;
        reasons_[var] = -1;
        heapInsert(var);
    }
    trail_.resize(limit);
    trail_limits_.resize(level);
    propagate_head_ = trail_.size();
}

int
SatSolver::pickBranchVar()
{
    // Pop until an unassigned variable surfaces; assigned entries are
    // discarded (they re-enter the heap when backtracking unassigns
    // them).
    while (!order_heap_.empty()) {
        int var = order_heap_[0];
        heapSwap(0, order_heap_.size() - 1);
        order_heap_.pop_back();
        heap_pos_[var] = -1;
        heapDown(0);
        if (assigns_[var] == Assign::Unassigned)
            return var;
    }
    return -1;
}

void
SatSolver::rebuildWatches()
{
    for (std::vector<Watcher> &watch_list : watches_)
        watch_list.clear();
    for (size_t i = 0; i < clauses_.size(); ++i)
        attachClause(static_cast<int>(i));
}

void
SatSolver::reduceLearnts()
{
    // Called at decision level 0. Level-0 assignments may still carry
    // clause-index reasons from root propagation; analyze() never
    // dereferences level-0 reasons, so they can be cleared before the
    // indices are invalidated by compaction.
    for (int enc : trail_)
        reasons_[litVar(enc)] = -1;

    // Rank reducible learnt clauses by activity, ties to the older
    // (lower-index) clause so the reduction is deterministic; drop the
    // less active half. Binary learnt clauses are cheap to keep and
    // high-value, and glue clauses (LBD <= 2) bridge almost-adjacent
    // decision levels and keep proving useful across incremental
    // calls, so neither is ever dropped.
    std::vector<int> candidates;
    for (size_t i = 0; i < clauses_.size(); ++i)
        if (clauses_[i].learnt && clauses_[i].size > 2 &&
            clauses_[i].lbd > 2)
            candidates.push_back(static_cast<int>(i));
    if (candidates.size() < 2)
        return;
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
        if (clauses_[a].activity != clauses_[b].activity)
            return clauses_[a].activity > clauses_[b].activity;
        return a < b;
    });
    std::vector<bool> drop(clauses_.size(), false);
    for (size_t i = candidates.size() / 2; i < candidates.size(); ++i)
        drop[candidates[i]] = true;

    // Compact headers and the literal arena together.
    std::vector<Clause> kept;
    kept.reserve(clauses_.size());
    std::vector<int> new_pool;
    new_pool.reserve(pool_.size());
    for (size_t i = 0; i < clauses_.size(); ++i) {
        if (drop[i])
            continue;
        Clause clause = clauses_[i];
        const int *lits = clauseLits(clause);
        uint32_t offset = static_cast<uint32_t>(new_pool.size());
        new_pool.insert(new_pool.end(), lits, lits + clause.size);
        clause.offset = offset;
        kept.push_back(clause);
    }
    uint64_t removed = clauses_.size() - kept.size();
    clauses_ = std::move(kept);
    pool_ = std::move(new_pool);
    learnts_removed_ += removed;
    num_learnts_ -= removed;

    // Clause indices changed wholesale; rebuild every watch list.
    rebuildWatches();
}

void
SatSolver::snapshotModel()
{
    model_ = assigns_;
}

SatResult
SatSolver::solve(uint64_t conflict_budget)
{
    // Chaos-test injection: pretend the conflict budget was exhausted
    // immediately, exactly the answer an adversarial instance forces.
    if (LPO_FAILPOINT("sat.exhaust"))
        return SatResult::Unknown;
    if (unsat_)
        return SatResult::Unsat;
    assert(trail_limits_.empty() &&
           "solve calls must start at decision level 0");
    if (propagate() != -1) {
        unsat_ = true;
        return SatResult::Unsat;
    }

    const uint64_t conflicts_at_entry = conflicts_;
    uint64_t restart_index = 0;
    uint64_t restart_limit = restart_unit_ * lubyTerm(restart_index);
    uint64_t conflicts_since_restart = 0;

    for (;;) {
        int conflict = propagate();
        if (conflict != -1) {
            ++conflicts_;
            ++conflicts_since_restart;
            if (trail_limits_.empty()) {
                unsat_ = true;
                return SatResult::Unsat;
            }
            if (conflict_budget &&
                conflicts_ - conflicts_at_entry >= conflict_budget) {
                backtrack(0);
                return SatResult::Unknown;
            }
            // Cooperative cancellation answers like an exhausted
            // budget; an unset flag costs one predictable branch per
            // conflict and changes nothing else.
            if (interrupt_ &&
                interrupt_->load(std::memory_order_relaxed)) {
                backtrack(0);
                return SatResult::Unknown;
            }
            uint32_t lbd = 0;
            int bt_level = analyze(conflict, learnt_scratch_, &lbd);
            backtrack(bt_level);
            if (learnt_scratch_.size() == 1) {
                if (!enqueue(learnt_scratch_[0], -1)) {
                    unsat_ = true;
                    return SatResult::Unsat;
                }
            } else {
                int ci = storeClause(learnt_scratch_, true, lbd,
                                     cla_inc_);
                ++num_learnts_;
                attachClause(ci);
                bool ok = enqueue(learnt_scratch_[0], ci);
                assert(ok && "learnt clause must be asserting");
                (void)ok;
            }
            decayActivities();
        } else {
            if (conflicts_since_restart >= restart_limit) {
                conflicts_since_restart = 0;
                ++restarts_;
                ++restart_index;
                restart_limit = restart_unit_ * lubyTerm(restart_index);
                backtrack(0);
                // Restart is the safe point to shed inactive learnt
                // clauses: nothing above level 0 holds a reason.
                if (num_learnts_ > reduce_limit_) {
                    reduceLearnts();
                    reduce_limit_ += reduce_limit_ / 2;
                }
                continue;
            }
            int var = pickBranchVar();
            if (var == -1) {
                snapshotModel();
                backtrack(0);
                return SatResult::Sat;
            }
            ++decisions_;
            trail_limits_.push_back(static_cast<int>(trail_.size()));
            enqueue(var * 2 + (polarity_[var] ? 0 : 1), -1);
        }
    }
}

bool
SatSolver::modelValue(int var) const
{
    assert(var >= 1 && var <= num_vars_);
    assert(static_cast<size_t>(var) < model_.size() &&
           "modelValue requires a preceding Sat answer");
    return model_[var] == Assign::True;
}

} // namespace lpo::smt
