/**
 * @file
 * Bit-blasting: bit-vector circuits Tseitin-encoded into SAT clauses.
 *
 * Together with SatSolver this forms the SMT(QF_BV) substrate the
 * translation validator runs on. Words are vectors of literals, LSB
 * first. Gate constructors fold constants so that circuits built over
 * constant inputs produce no clauses at all.
 */
#ifndef LPO_SMT_BITBLAST_H
#define LPO_SMT_BITBLAST_H

#include <cstdint>
#include <unordered_map>
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
 * Gate construction is structurally hashed (AIG-style unique table):
 * AND/XOR/MUX nodes are canonicalized (commutative operands ordered,
 * XOR negations pulled out of the node, MUX selector made positive)
 * and looked up before any variable or clause is emitted, so an
 * identical subcircuit built twice — e.g. the re-encoded source
 * function shared by every candidate of one extraction site, or the
 * shared prefix of a src/tgt pair — costs one variable and one clause
 * set, not two. See DESIGN.md, "Structural hashing in the circuit
 * builder" for the invariants.
 */
class CircuitBuilder
{
  public:
    static constexpr CLit kTrue = 1 << 30;
    static constexpr CLit kFalse = -(1 << 30);

    explicit CircuitBuilder(SatSolver &solver) : solver_(solver) {}

    SatSolver &solver() { return solver_; }

    /** Gate constructions answered from the unique table. */
    uint64_t uniqueTableHits() const { return unique_hits_; }
    /** Distinct hashed nodes created so far. */
    uint64_t uniqueTableSize() const { return unique_.size(); }

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

    /** Assert @p a at the top level. */
    void require(CLit a);
    /** Assert (guard -> a). */
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
     * Unsigned division/remainder via auxiliary variables.
     *
     * The defining constraints (x == q*y + r, r < y) are only asserted
     * under @p guard; callers pass the "divisor is nonzero" condition,
     * matching the IR's UB rules.
     */
    void bvUDivRem(const BitVec &x, const BitVec &y, CLit guard,
                   BitVec *quotient, BitVec *remainder);
    /** Signed division/remainder (C semantics, truncating). */
    void bvSDivRem(const BitVec &x, const BitVec &y, CLit guard,
                   BitVec *quotient, BitVec *remainder);

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

    /** Read a literal from the model after Sat. */
    bool modelLit(CLit a) const;
    /** Read a bit-vector value from the model after Sat. */
    APInt modelBV(const BitVec &a) const;

  private:
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
    struct NodeKeyHash
    {
        size_t operator()(const NodeKey &k) const
        {
            // FNV-1a over the four fields.
            uint64_t h = 0xcbf29ce484222325ull;
            for (uint64_t v : {uint64_t(k.kind), uint64_t(uint32_t(k.a)),
                               uint64_t(uint32_t(k.b)),
                               uint64_t(uint32_t(k.c))}) {
                h ^= v;
                h *= 0x100000001b3ull;
            }
            return static_cast<size_t>(h);
        }
    };

    /** Table lookup; returns 0 (never a valid CLit) on miss. */
    CLit lookupNode(const NodeKey &key);
    void insertNode(const NodeKey &key, CLit out);

    SatSolver &solver_;
    std::unordered_map<NodeKey, CLit, NodeKeyHash> unique_;
    uint64_t unique_hits_ = 0;
};

} // namespace lpo::smt

#endif // LPO_SMT_BITBLAST_H
