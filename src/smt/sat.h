/**
 * @file
 * A CDCL SAT solver.
 *
 * This is the decision engine under the translation validator (the
 * system's Z3 substitute). It implements the standard conflict-driven
 * clause-learning loop: two-watched-literal propagation, 1UIP conflict
 * analysis with recursive clause minimization, activity-based
 * (VSIDS-style) decision ordering over a binary heap, phase saving,
 * Luby restarts with LBD-aware learnt-clause database reduction, and a
 * per-call conflict budget so callers can bound verification time
 * (Alive2-style timeouts).
 *
 * Clauses may be added between solve calls, and a solver may be
 * solved again after any answer: learnt clauses, activities and saved
 * phases carry over, which is what lets the budget-escalation ladder
 * resume an exhausted proof under the next tier instead of restarting
 * it (see DESIGN.md, "Budget-escalation ladder").
 *
 * Storage layout: clause literals live in one flat arena (`pool_`)
 * indexed by small fixed-size headers, and each watch entry carries a
 * blocker slot so binary clauses propagate without touching clause
 * memory at all. Assignments are indexed by literal, not variable, so
 * reading a literal's value is one byte load with no sign arithmetic;
 * saved phases are one byte per variable. Clause intake sorts, dedups
 * and prunes in a member scratch buffer, so adding a clause allocates
 * only when the arena or a watch list grows.
 *
 * reset() restores the freshly constructed state while keeping every
 * buffer's capacity, so a solver reused across queries (the verifier
 * keeps one per thread, see DESIGN.md, "Verifier workspace") stops
 * allocating once it has seen its largest query.
 *
 * All of this is representation only: the search trajectory
 * (decisions, conflicts, learnt clauses, models) is bit-identical to
 * the boxed-vector layout, which is what keeps verdicts and
 * counterexamples stable across releases.
 */
#ifndef LPO_SMT_SAT_H
#define LPO_SMT_SAT_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lpo::smt {

/**
 * A literal: variable index (1-based) with sign.
 *
 * Encoded as var*2 + (negated ? 1 : 0) internally; the public API uses
 * signed ints like DIMACS (+v / -v).
 */
using Lit = int;

/** Solver outcome. */
enum class SatResult { Sat, Unsat, Unknown };

/** CDCL solver over clauses of DIMACS-style literals. */
class SatSolver
{
  public:
    SatSolver() { reset(); }

    /**
     * Forget every variable, clause, assignment, statistic and setting
     * (interrupt flags, reduce limit, restart unit): the solver answers
     * exactly as a newly constructed one would, but keeps the capacity
     * of every buffer it has grown.
     */
    void reset();

    /** Allocate and return a fresh variable (1-based). */
    int newVar();
    int numVars() const { return num_vars_; }

    /**
     * Add a clause (non-empty literals over existing vars).
     * Returns false if the formula is already trivially unsat.
     */
    bool addClause(const Lit *lits, size_t count);
    bool addClause(const std::vector<Lit> &lits)
    {
        return addClause(lits.data(), lits.size());
    }
    bool addUnit(Lit a) { return addClause(&a, 1); }
    bool addBinary(Lit a, Lit b)
    {
        const Lit lits[] = {a, b};
        return addClause(lits, 2);
    }
    bool addTernary(Lit a, Lit b, Lit c)
    {
        const Lit lits[] = {a, b, c};
        return addClause(lits, 3);
    }
    /**
     * Add the empty clause: the formula becomes unsatisfiable (latched,
     * see inconsistent()) without a variable or a propagation. Counted
     * in clausesAdded() unless the formula was already known unsat.
     */
    void addEmptyClause();

    /**
     * Solve the current formula.
     * @param conflict_budget maximum conflicts for THIS call before
     *        Unknown (0 = unlimited).
     */
    SatResult solve(uint64_t conflict_budget = 0);

    /** After Sat: the value assigned to @p var in the model. */
    bool modelValue(int var) const;

    /** True once the formula is known unsatisfiable (latched). */
    bool inconsistent() const { return unsat_; }

    /**
     * Cooperative cancellation: when @p flag or @p second becomes
     * true, the current (and any later) solve call returns Unknown at
     * the next conflict boundary. The solver stays consistent —
     * exactly as if the conflict budget had been exhausted. Null or
     * never-set flags leave the search trajectory untouched, so
     * cancellation wiring cannot perturb verdicts that complete
     * normally.
     */
    void setInterrupt(const std::atomic<bool> *flag,
                      const std::atomic<bool> *second = nullptr)
    {
        interrupt_ = {flag, second};
    }

    /** Statistics for the throughput benchmarks. */
    uint64_t conflicts() const { return conflicts_; }
    uint64_t decisions() const { return decisions_; }
    uint64_t propagations() const { return propagations_; }
    /** Completed restarts (Luby schedule). */
    uint64_t restarts() const { return restarts_; }
    /** Problem clauses accepted (stored or enqueued as units). */
    uint64_t clausesAdded() const { return clauses_added_; }
    /** Learnt clauses dropped by database reduction. */
    uint64_t learntsRemoved() const { return learnts_removed_; }
    /**
     * Learnt-clause count that triggers database reduction at the
     * next restart (grows geometrically afterwards). Exposed so tests
     * can force reductions on small instances.
     */
    void setReduceLimit(uint64_t limit) { reduce_limit_ = limit; }
    /**
     * Base conflict count of the Luby restart schedule (restart i
     * fires after unit * luby(i) conflicts). Exposed for tests; the
     * default matches MiniSat's 100.
     */
    void setRestartUnit(uint64_t unit) { restart_unit_ = unit ? unit : 1; }

  private:
    // Internal literal encoding: v*2 (positive) / v*2+1 (negative).
    static int encode(Lit lit)
    {
        int v = lit > 0 ? lit : -lit;
        return v * 2 + (lit < 0 ? 1 : 0);
    }
    static int litVar(int enc) { return enc / 2; }
    static int litNeg(int enc) { return enc ^ 1; }

    /**
     * Clause header. Literals live in the shared arena @ref pool_ at
     * [offset, offset+size); headers stay contiguous so the propagate
     * loop walks two dense arrays instead of chasing per-clause heap
     * allocations.
     */
    struct Clause
    {
        uint32_t offset = 0;
        uint32_t size = 0;
        bool learnt = false;
        bool dropped = false; ///< marked by reduceLearnts, then erased
        uint32_t lbd = 0; ///< literal-block distance at learning time
        double activity = 0.0;
    };

    /**
     * One watch-list entry. For binary clauses @ref blocker holds the
     * clause's other literal (it can never move, so it is always
     * exact) and propagation reads only the watcher; for longer
     * clauses blocker is -1 and the clause is dereferenced as usual.
     * Valid encoded literals are >= 2, so -1 is a safe sentinel.
     */
    struct Watcher
    {
        int clause;
        int blocker;
    };

    enum class Assign : int8_t { Unassigned = -1, False = 0, True = 1 };

    Assign valueOf(int enc) const { return values_[enc]; }
    Assign varValue(int var) const { return values_[var * 2]; }

    int *clauseLits(const Clause &c) { return pool_.data() + c.offset; }
    const int *clauseLits(const Clause &c) const
    {
        return pool_.data() + c.offset;
    }

    bool enqueue(int enc, int reason);
    int propagate(); // returns conflicting clause index or -1
    int analyze(int conflict, std::vector<int> &learnt, uint32_t *lbd);
    bool litRedundant(int enc, uint32_t abstract_levels,
                      std::vector<int> &to_clear);
    void backtrack(int level);
    void bumpVar(int var);
    void bumpClause(Clause &clause);
    void decayActivities();
    int pickBranchVar();
    int storeClause(const int *lits, size_t count, bool learnt,
                    uint32_t lbd, double activity);
    void attachClause(int index);
    void reduceLearnts();
    void rebuildWatches();
    void snapshotModel();

    uint32_t abstractLevel(int var) const
    {
        return uint32_t(1) << (levels_[var] & 31);
    }

    // Decision-order heap (max-heap on activity, ties to the lower
    // variable index so the order is fully deterministic).
    bool heapLess(int a, int b) const
    {
        return activities_[a] > activities_[b] ||
               (activities_[a] == activities_[b] && a < b);
    }
    void heapUp(size_t i);
    void heapDown(size_t i);
    void heapInsert(int var);

    int num_vars_ = 0;
    std::vector<Clause> clauses_;
    std::vector<int> pool_;                  // all clause literals
    std::vector<std::vector<Watcher>> watches_; // enc-lit -> watchers
    std::vector<Assign> values_;            // per encoded literal
    std::vector<Assign> model_;             // values_ at the last Sat
    std::vector<int> levels_;               // per var
    std::vector<int> reasons_;              // per var, clause index or -1
    std::vector<double> activities_;        // per var
    std::vector<uint8_t> polarity_;         // per var, phase saving
    std::vector<int> order_heap_;           // vars, heap-ordered
    std::vector<int> heap_pos_;             // var -> index or -1
    std::vector<int> trail_;                // encoded lits
    std::vector<int> trail_limits_;
    size_t propagate_head_ = 0;
    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;
    uint64_t num_learnts_ = 0;
    static constexpr uint64_t kReduceLimit = 2000;
    static constexpr uint64_t kRestartUnit = 100;
    uint64_t reduce_limit_ = kReduceLimit;
    uint64_t restart_unit_ = kRestartUnit;
    bool unsat_ = false;
    std::array<const std::atomic<bool> *, 2> interrupt_{};

    // Scratch state reused across conflicts so the hot loop never
    // allocates: the conflict-analysis marker array (cleared back to
    // zero via seen_clear_ after every use — never re-zeroed in bulk),
    // the litRedundant DFS stack, and the learnt-clause buffers.
    std::vector<uint8_t> seen_;             // per var
    std::vector<int> seen_clear_;           // vars with seen_ set
    std::vector<int> redundant_stack_;
    std::vector<int> learnt_scratch_;
    std::vector<int> minimize_clear_;
    std::vector<int> lbd_levels_;
    std::vector<int> clause_scratch_;       // addClause's encoded lits
    std::vector<int> reduce_candidates_;    // reduceLearnts' ranking

    uint64_t conflicts_ = 0;
    uint64_t decisions_ = 0;
    uint64_t propagations_ = 0;
    uint64_t restarts_ = 0;
    uint64_t clauses_added_ = 0;
    uint64_t learnts_removed_ = 0;
};

} // namespace lpo::smt

#endif // LPO_SMT_SAT_H
