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

void
SatSolver::reset()
{
    // Watch lists past the live variables are already empty (the
    // invariant this loop keeps), so only live ones need clearing; the
    // outer vector keeps its size and every list its capacity.
    for (size_t i = 0; i < static_cast<size_t>(num_vars_ + 1) * 2 &&
                       i < watches_.size();
         ++i)
        watches_[i].clear();
    num_vars_ = 0;
    clauses_.clear();
    pool_.clear();
    // Variables are 1-based; slot 0 (literals 0 and 1) is a dummy.
    values_.assign(2, Assign::Unassigned);
    model_.clear();
    levels_.assign(1, 0);
    reasons_.assign(1, -1);
    activities_.assign(1, 0.0);
    polarity_.assign(1, 0);
    order_heap_.clear();
    heap_pos_.assign(1, -1);
    trail_.clear();
    trail_limits_.clear();
    propagate_head_ = 0;
    var_inc_ = 1.0;
    cla_inc_ = 1.0;
    num_learnts_ = 0;
    reduce_limit_ = kReduceLimit;
    restart_unit_ = kRestartUnit;
    unsat_ = false;
    interrupt_ = {};
    seen_.assign(1, 0);
    conflicts_ = 0;
    decisions_ = 0;
    propagations_ = 0;
    restarts_ = 0;
    clauses_added_ = 0;
    learnts_removed_ = 0;
}

int
SatSolver::newVar()
{
    ++num_vars_;
    values_.push_back(Assign::Unassigned);
    values_.push_back(Assign::Unassigned);
    levels_.push_back(0);
    reasons_.push_back(-1);
    activities_.push_back(0.0);
    polarity_.push_back(0);
    heap_pos_.push_back(-1);
    seen_.push_back(0);
    const size_t lists = static_cast<size_t>(num_vars_ + 1) * 2;
    if (watches_.size() < lists)
        watches_.resize(lists);
    heapInsert(num_vars_);
    return num_vars_;
}

// ---------------------------------------------------------------------
// Decision-order heap
// ---------------------------------------------------------------------

// Both sifts move a hole instead of swapping (Een and Soerensson,
// "An Extensible SAT-solver", SAT 2003): the moving variable is written
// once, where the hole stops. heapLess is a strict total order (ties go
// to the lower index), so the minimum of a node and its children is
// unique and a hole sift leaves every variable exactly where a
// swap-based sift would.

void
SatSolver::heapUp(size_t i)
{
    int *heap = order_heap_.data();
    const int var = heap[i];
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!heapLess(var, heap[parent]))
            break;
        heap[i] = heap[parent];
        heap_pos_[heap[i]] = static_cast<int>(i);
        i = parent;
    }
    heap[i] = var;
    heap_pos_[var] = static_cast<int>(i);
}

void
SatSolver::heapDown(size_t i)
{
    int *heap = order_heap_.data();
    const size_t size = order_heap_.size();
    if (i >= size)
        return;
    const int var = heap[i];
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heapLess(heap[child + 1], heap[child]))
            ++child;
        if (!heapLess(heap[child], var))
            break;
        heap[i] = heap[child];
        heap_pos_[heap[i]] = static_cast<int>(i);
        i = child;
    }
    heap[i] = var;
    heap_pos_[var] = static_cast<int>(i);
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
SatSolver::storeClause(const int *lits, size_t count, bool learnt,
                       uint32_t lbd, double activity)
{
    Clause clause;
    clause.offset = static_cast<uint32_t>(pool_.size());
    clause.size = static_cast<uint32_t>(count);
    clause.learnt = learnt;
    clause.lbd = lbd;
    clause.activity = activity;
    pool_.insert(pool_.end(), lits, lits + count);
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
SatSolver::addClause(const Lit *lits, size_t count)
{
    if (unsat_)
        return false;
    assert(count > 0);
    assert(trail_limits_.empty() &&
           "clauses may only be added at decision level 0");
    // Encode, dedup, and drop tautologies, all in the member scratch.
    std::vector<int> &enc = clause_scratch_;
    enc.clear();
    for (size_t i = 0; i < count; ++i) {
        assert(lits[i] != 0 && std::abs(lits[i]) <= num_vars_);
        enc.push_back(encode(lits[i]));
    }
    std::sort(enc.begin(), enc.end());
    enc.erase(std::unique(enc.begin(), enc.end()), enc.end());
    for (size_t i = 0; i + 1 < enc.size(); ++i)
        if (litVar(enc[i]) == litVar(enc[i + 1]))
            return true; // tautology: v OR !v
    // Remove literals already false at level 0 (in place: the kept
    // prefix never overtakes the read position); satisfied => drop.
    size_t kept = 0;
    for (int e : enc) {
        Assign value = valueOf(e);
        if (value == Assign::True && levels_[litVar(e)] == 0)
            return true;
        if (value == Assign::False && levels_[litVar(e)] == 0)
            continue;
        enc[kept++] = e;
    }
    enc.resize(kept);
    if (enc.empty()) {
        unsat_ = true;
        return false;
    }
    if (enc.size() == 1) {
        ++clauses_added_;
        if (!enqueue(enc[0], -1)) {
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
    int ci = storeClause(enc.data(), enc.size(), false, 0, 0.0);
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
    values_[enc] = Assign::True;
    values_[litNeg(enc)] = Assign::False;
    levels_[var] = static_cast<int>(trail_limits_.size());
    reasons_[var] = reason;
    polarity_[var] = !(enc & 1);
    trail_.push_back(enc);
    return true;
}

int
SatSolver::propagate()
{
    // Raw-pointer walk over each watch list: i reads, j writes back the
    // watchers that stay. Pushes during the walk go to other literals'
    // lists (a new watch is never the falsified literal), and the outer
    // vector never resizes here, so both pointers stay valid.
    const Assign *values = values_.data();
    while (propagate_head_ < trail_.size()) {
        int enc = trail_[propagate_head_++];
        ++propagations_;
        const int falsified = litNeg(enc);
        std::vector<Watcher> &watch_list = watches_[enc];
        Watcher *const begin = watch_list.data();
        Watcher *const end = begin + watch_list.size();
        Watcher *i = begin;
        Watcher *j = begin;
        while (i != end) {
            const Watcher w = *i++;
            if (w.blocker != -1) {
                // Binary fast path: the watcher already names the only
                // other literal, so satisfied and propagating clauses
                // are handled without dereferencing the clause.
                Assign value = values[w.blocker];
                *j++ = w;
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
                int *lits = clauseLits(clauses_[w.clause]);
                if (lits[0] == falsified)
                    std::swap(lits[0], lits[1]);
                while (i != end)
                    *j++ = *i++;
                watch_list.resize(static_cast<size_t>(j - begin));
                propagate_head_ = trail_.size();
                return w.clause;
            }
            const Clause &clause = clauses_[w.clause];
            int *lits = clauseLits(clause);
            // Normalize: watched literals are lits[0] and lits[1];
            // the falsified one must be lits[1].
            if (lits[0] == falsified)
                std::swap(lits[0], lits[1]);
            if (values[lits[0]] == Assign::True) {
                *j++ = w;
                continue;
            }
            // Find a new watch.
            bool moved = false;
            for (uint32_t k = 2; k < clause.size; ++k) {
                if (values[lits[k]] != Assign::False) {
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
            *j++ = w;
            if (!enqueue(lits[0], w.clause)) {
                // Conflict: keep remaining watches and report.
                while (i != end)
                    *j++ = *i++;
                watch_list.resize(static_cast<size_t>(j - begin));
                propagate_head_ = trail_.size();
                return w.clause;
            }
        }
        watch_list.resize(static_cast<size_t>(j - begin));
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
        int enc = trail_[i - 1];
        int var = litVar(enc);
        values_[enc] = Assign::Unassigned;
        values_[litNeg(enc)] = Assign::Unassigned;
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
        int last = order_heap_.back();
        order_heap_.pop_back();
        heap_pos_[var] = -1;
        if (!order_heap_.empty()) {
            order_heap_[0] = last;
            heap_pos_[last] = 0;
            heapDown(0);
        }
        if (varValue(var) == Assign::Unassigned)
            return var;
    }
    return -1;
}

void
SatSolver::rebuildWatches()
{
    for (size_t i = 0; i < static_cast<size_t>(num_vars_ + 1) * 2; ++i)
        watches_[i].clear();
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
    std::vector<int> &candidates = reduce_candidates_;
    candidates.clear();
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
    for (size_t i = candidates.size() / 2; i < candidates.size(); ++i)
        clauses_[candidates[i]].dropped = true;

    // Compact headers and the literal arena together, in place: kept
    // clauses keep their order and only ever move toward the front
    // (std::copy allows a destination before its source range).
    size_t kept = 0;
    uint32_t pool_end = 0;
    for (size_t i = 0; i < clauses_.size(); ++i) {
        Clause clause = clauses_[i];
        if (clause.dropped)
            continue;
        if (clause.offset != pool_end)
            std::copy(pool_.begin() + clause.offset,
                      pool_.begin() + clause.offset + clause.size,
                      pool_.begin() + pool_end);
        clause.offset = pool_end;
        pool_end += clause.size;
        clauses_[kept++] = clause;
    }
    uint64_t removed = clauses_.size() - kept;
    clauses_.resize(kept);
    pool_.resize(pool_end);
    learnts_removed_ += removed;
    num_learnts_ -= removed;

    // Clause indices changed wholesale; rebuild every watch list.
    rebuildWatches();
}

void
SatSolver::snapshotModel()
{
    model_ = values_;
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
            // budget; unset flags cost two predictable branches per
            // conflict and change nothing else.
            if ((interrupt_[0] &&
                 interrupt_[0]->load(std::memory_order_relaxed)) ||
                (interrupt_[1] &&
                 interrupt_[1]->load(std::memory_order_relaxed))) {
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
                int ci = storeClause(learnt_scratch_.data(),
                                     learnt_scratch_.size(), true, lbd,
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
    assert(static_cast<size_t>(var) * 2 < model_.size() &&
           "modelValue requires a preceding Sat answer");
    return model_[var * 2] == Assign::True;
}

} // namespace lpo::smt
