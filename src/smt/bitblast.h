/**
 * @file
 * Bit-blasting: bit-vector circuits Tseitin-encoded into SAT clauses.
 *
 * Together with SatSolver this forms the SMT(QF_BV) substrate the
 * translation validator runs on. Words are vectors of literals, LSB
 * first. Gate constructors fold constants and record each remaining
 * gate in the builder; its clauses reach the solver only when a
 * constraint over the circuit is asserted, so a circuit that folds to
 * a constant, or a constraint that does, produces no clauses at all.
 */
#ifndef LPO_SMT_BITBLAST_H
#define LPO_SMT_BITBLAST_H

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "smt/sat.h"
#include "support/apint.h"

namespace lpo::smt {

/** A circuit literal: +/-var, or the constant true/false sentinels. */
using CLit = int;

/** A bit-vector as little-endian circuit literals. */
using BitVec = std::vector<CLit>;

/**
 * Builds circuits over a SatSolver.
 *
 * Every free input and gate is a builder variable, numbered in
 * creation order; the builder keeps each one's definition and emits
 * nothing while gates are built. require() and requireImplies() first
 * emit(): the solver gets the same variables, and each pending gate's
 * Tseitin clauses in variable order, so the CNF is clause for clause
 * the one an eager encoding would give. A constraint that folds to
 * false makes the solver unsat with the empty clause instead, and the
 * circuit under it is never emitted.
 *
 * Gate construction is structurally hashed (AIG-style unique table):
 * AND/XOR/MUX nodes are canonicalized (commutative operands ordered,
 * XOR negations pulled out of the node, MUX selector made positive)
 * and looked up before any variable is created, so an identical
 * subcircuit built twice — e.g. the re-encoded source function shared
 * by every candidate of one extraction site, or the shared prefix of a
 * src/tgt pair — costs one variable and one clause set, not two.
 * That is the builder's only sharing: it proves nothing, so two gates
 * of one function but different structure stay two variables. Word
 * identities are decided above it, on the encoder's term DAG, and what
 * the terms leave open goes to the solver. See DESIGN.md, "Structural
 * hashing in the circuit builder" for the invariants.
 *
 * The unique table is a flat open-addressed array that grows through
 * a member scratch buffer, and reset() empties it and every arena
 * without giving back capacity, so a builder reused across queries
 * (with its solver, see DESIGN.md, "Verifier workspace") allocates
 * nothing for its circuit once it has seen its largest query.
 */
class CircuitBuilder
{
  public:
    static constexpr CLit kTrue = 1 << 30;
    static constexpr CLit kFalse = -(1 << 30);

    explicit CircuitBuilder(SatSolver &solver) : solver_(solver) {}

    SatSolver &solver() { return solver_; }

    /**
     * Forget every node, table entry, memoized division and statistic:
     * the builder behaves exactly as a newly constructed one over the
     * same solver, but keeps the capacity of its arenas and tables. It
     * leaves the solver alone; a fresh circuit needs a fresh solver
     * too, so reset both (SatSolver::reset).
     */
    void reset();

    /** Gate constructions answered from the unique table. */
    uint64_t uniqueTableHits() const { return unique_hits_; }
    /** Distinct hashed nodes created so far. */
    uint64_t uniqueTableSize() const { return node_entries_; }
    /** Variables (free inputs and gates) built so far. */
    int numNodes() const { return static_cast<int>(gates_.size()) - 1; }
    /** Variables already handed to the solver by emit(). */
    int numEmitted() const { return emitted_; }

    /**
     * Hand the solver every variable built since the last emit, then
     * each new gate's Tseitin clauses in variable order. Constraints
     * call this themselves; call it directly before solving to read
     * a literal no constraint mentions from the model, or to inspect
     * or copy the solver's formula.
     */
    void emit();

    /** A fresh unconstrained literal. */
    CLit freshLit();
    /** A fresh unconstrained bit-vector of @p width bits. */
    BitVec freshBV(unsigned width);
    /** The constant bit-vector for @p value. */
    static BitVec constBV(const APInt &value);

    static CLit notGate(CLit a) { return -a; }
    CLit andGate(CLit a, CLit b);
    CLit orGate(CLit a, CLit b);
    CLit xorGate(CLit a, CLit b);
    CLit iffGate(CLit a, CLit b) { return -xorGate(a, b); }
    /** sel ? t : f. */
    CLit muxGate(CLit sel, CLit t, CLit f);
    CLit andMany(const std::vector<CLit> &lits);
    CLit orMany(const std::vector<CLit> &lits);

    /** Assert @p a at the top level (emits the circuit first, unless
     *  @p a is a constant). */
    void require(CLit a);
    /** Assert (guard -> a), likewise. */
    void requireImplies(CLit guard, CLit a);

    // Bit-vector logic.
    BitVec bvAnd(const BitVec &a, const BitVec &b);
    BitVec bvOr(const BitVec &a, const BitVec &b);
    BitVec bvXor(const BitVec &a, const BitVec &b);
    BitVec bvNot(const BitVec &a);
    BitVec bvMux(CLit sel, const BitVec &t, const BitVec &f);

    // Arithmetic.
    /** Sum; if @p carry_out is non-null, receives the final carry. */
    BitVec bvAdd(const BitVec &a, const BitVec &b,
                 CLit *carry_out = nullptr);
    BitVec bvSub(const BitVec &a, const BitVec &b,
                 CLit *borrow_out = nullptr);
    BitVec bvNeg(const BitVec &a);
    /** Low @p a.size() bits of the product. */
    BitVec bvMul(const BitVec &a, const BitVec &b);
    /** Full 2N-bit product. */
    BitVec bvMulFull(const BitVec &a, const BitVec &b);

    /**
     * Division and remainder (unsigned, or signed with C's truncating
     * semantics) via auxiliary quotient and remainder variables.
     *
     * The defining constraints (x == q*y + r with |r| < |y|, and for
     * signed division r == 0 or sign(r) == sign(x)) are asserted only
     * under @p guard; callers pass "the divisor is nonzero and not
     * poison" (and, signed, "not INT_MIN / -1"), matching the IR's UB
     * rules. Divisions are memoized on (@p is_signed, @p x, @p y): a
     * repeat returns the same q and r and asserts the same constraints
     * under its own guard, so a division source and target share is
     * one node. That is sound because where a caller's guard is false
     * its division is UB or its result poison, so the value q and r
     * take there is never observed.
     */
    void bvDivRem(bool is_signed, const BitVec &x, const BitVec &y,
                  CLit guard, BitVec *quotient, BitVec *remainder);

    // Shifts (barrel shifter for variable amounts).
    BitVec bvShl(const BitVec &a, const BitVec &amount);
    BitVec bvLShr(const BitVec &a, const BitVec &amount);
    BitVec bvAShr(const BitVec &a, const BitVec &amount);

    // Predicates.
    CLit bvEq(const BitVec &a, const BitVec &b);
    CLit bvULt(const BitVec &a, const BitVec &b);
    CLit bvULe(const BitVec &a, const BitVec &b);
    CLit bvSLt(const BitVec &a, const BitVec &b);
    CLit bvSLe(const BitVec &a, const BitVec &b);
    /** True if any bit is set. */
    CLit bvNonZero(const BitVec &a);

    // Width changes.
    static BitVec bvTrunc(const BitVec &a, unsigned width);
    static BitVec bvZext(const BitVec &a, unsigned width);
    static BitVec bvSext(const BitVec &a, unsigned width);

    // Overflow predicates mirroring the APInt ones.
    CLit addOverflowsU(const BitVec &a, const BitVec &b);
    CLit addOverflowsS(const BitVec &a, const BitVec &b);
    CLit subOverflowsU(const BitVec &a, const BitVec &b);
    CLit subOverflowsS(const BitVec &a, const BitVec &b);
    CLit mulOverflowsU(const BitVec &a, const BitVec &b);
    CLit mulOverflowsS(const BitVec &a, const BitVec &b);

    /** Read a literal from the model after Sat; its variable must
     *  have been emitted. */
    bool modelLit(CLit a) const;
    /** Read a bit-vector value from the model after Sat. */
    APInt modelBV(const BitVec &a) const;

  private:
    /** One memoized division (see bvDivRem). */
    struct Division
    {
        BitVec q;
        BitVec r;
        std::vector<CLit> constraints; ///< each asserted under every guard
        std::vector<CLit> guards;
    };
    using DivKey = std::tuple<bool, BitVec, BitVec>; ///< signed, x, y

    /** Unique-table key: a canonicalized gate application. */
    struct NodeKey
    {
        uint8_t kind; // 0 = and, 1 = xor, 2 = mux
        CLit a = 0;
        CLit b = 0;
        CLit c = 0;

        bool operator==(const NodeKey &o) const
        {
            return kind == o.kind && a == o.a && b == o.b && c == o.c;
        }
    };
    /** One unique-table slot; out == 0 marks it empty. */
    struct NodeSlot
    {
        NodeKey key{};
        CLit out = 0;
    };

    /** Table lookup; returns 0 (never a valid CLit) on miss. */
    CLit lookupNode(const NodeKey &key);
    void insertNode(const NodeKey &key, CLit out);
    /** The unique-table slot holding @p key, or the empty slot where it
     *  would go. The table must not be empty. */
    size_t nodeSlot(const NodeKey &key) const;

    /** A variable's definition: a free input, or a gate over two
     *  literals (xor operands are positive). */
    struct Gate
    {
        uint8_t kind = kFree;
        CLit a = 0;
        CLit b = 0;
    };
    static constexpr uint8_t kFree = 0, kAnd = 1, kXor = 2;

    /** A fresh variable defined as @p kind(@p a, @p b); kFree makes
     *  a free input. */
    CLit newGate(uint8_t kind, CLit a, CLit b);
    /** The carry out of one full-adder bit, given a ^ b. */
    CLit carryGate(CLit a, CLit b, CLit axb, CLit carry);

    SatSolver &solver_;
    std::map<DivKey, Division> divisions_;
    /** Open-addressed unique table, kept at most half full. */
    std::vector<NodeSlot> node_table_;
    size_t node_entries_ = 0;
    uint64_t unique_hits_ = 0;
    /** Indexed by variable; slot 0 is unused (variables are 1-based,
     *  like the solver's). */
    std::vector<Gate> gates_ = std::vector<Gate>(1);
    int emitted_ = 0; ///< variables 1..emitted_ are in the solver
    /** The unique table's previous array while it grows: swapped with
     *  the live one, so growth reuses capacity. */
    std::vector<NodeSlot> node_rehash_;
};

} // namespace lpo::smt

#endif // LPO_SMT_BITBLAST_H
