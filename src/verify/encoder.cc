#include "verify/encoder.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <unordered_map>
#include <utility>

#include "support/failpoint.h"

namespace lpo::verify {

using ir::Instruction;
using ir::Intrinsic;
using ir::Opcode;
using ir::Type;
using ir::Value;
using smt::BitVec;
using smt::CircuitBuilder;
using smt::CLit;

namespace {

unsigned
laneCount(const Type *type)
{
    return type->isVector() ? type->lanes() : 1;
}

bool
typeEncodable(const Type *type)
{
    return type->isIntOrIntVector();
}

/**
 * Canonical operand order for commutative operations whose circuit
 * construction is asymmetric (multiply's shift-add array, min/max
 * comparator-mux). Gate-level sorting inside CircuitBuilder already
 * canonicalizes add/and/or/xor; this extends the same idea one level
 * up so that a candidate that merely commutes `umin(a, b)` or
 * `mul(a, b)` builds the identical gates as the source. Ordering is by
 * the operand bit literals (lexicographic), so it is a pure function
 * of the circuit and deterministic across runs.
 */
bool
laneOrderedBefore(const BitVec &a, const BitVec &b)
{
    return a < b;
}

bool
isConstBV(const BitVec &v)
{
    return std::all_of(v.begin(), v.end(), [](CLit bit) {
        return bit == CircuitBuilder::kTrue || bit == CircuitBuilder::kFalse;
    });
}

using TermId = uint32_t;
constexpr TermId kNoTerm = ~TermId(0);

enum class Op : uint8_t
{
    // Leaves: a constant word, or one lane of an argument.
    Const, Arg,
    // Word operators (see TermDag for their rules).
    Add, Xor, Mul, UMin, UMax, SMin, SMax, ULt, SLt, USubSat, UAddSat,
    Abs, Div, And, Or, Not, Eq, NonZero, SignBit, Select, Shl, LShr,
    AShr, Trunc, ZExt, SExt, CtPop, CtLz, CtTz, SSubSat, SAddSat,
    // Overflow poison predicate of an Add, Sub, Mul or Trunc (payload;
    // Sub names no node of its own).
    Sub, Overflow,
};

/** Overflow flags: which overflow the predicate is for. */
constexpr uint8_t kNuw = 1, kNsw = 2;
/** Div flags. */
constexpr uint8_t kSigned = 1, kRemainder = 2;

/** One operand of a term; @c neg marks a subtracted add leaf. */
struct Ref
{
    TermId id;
    bool neg = false;

    auto operator<=>(const Ref &) const = default;
};
using Refs = std::vector<Ref>;

/**
 * The word-level term DAG of one refinement query.
 *
 * Every encodable instruction becomes a term node, hash-consed on
 * (op, width, flags, payload, operand ids), and so do its poison and
 * its UB: each is a 1-bit predicate term over the same nodes, e.g.
 * poison(x +nsw y) = poison(x) | poison(y) | overflow_nsw(x, y). One
 * DAG serves source and target alike, so both sides of the miter meet
 * in the same nodes, and the miter itself is a term: when it folds to
 * false the query is decided before a single circuit node exists.
 * Constructors normalize by bit-vector identities and fold constants;
 * a node's operands are other nodes, so rules see through operands by
 * looking at their definitions. The rules:
 *
 * - add/sub chains flatten to a signed multiset of leaves (shl x, 1 is
 *   x + x) with +x/-x pairs and zeros dropped, and xor chains to a
 *   multiset with x ^ x pairs and zeros dropped, so any reassociation
 *   or cancellation of one chain is one node; leaves x & y and x | y
 *   of one sign become x and y, and x | y less x & y is x ^ y;
 * - mul flattens to a multiset of factors with the constant factors
 *   folded into one: (x * x) * c = x * (x * c), x * 1 = x, x * 0 = 0;
 *   a 1-bit product is an and;
 * - min/max flatten to a sorted operand set (associativity,
 *   commutativity, idempotence: umin(umin(a, b), a) = umin(a, b)),
 *   drop an operand absorbed by the dual (umin(a, umax(a, b)) = a) and
 *   the identity element (umax(a, 0) = a) and a constant no zext
 *   operand reaches (umin(zext(a), C) = zext(a)), and fold to an
 *   absorbing element (umin(a, 0) = 0);
 * - comparators are ult/slt nodes: ugt(x, y) = ult(y, x) and
 *   uge(x, y) = !ult(x, y), so a select sees through its condition;
 *   slt(x, y) is blasted as the sign of the add chain x - y xor its
 *   overflow, so shared leaves of x and y cancel;
 * - select(ult(p, q), p, q) is umin(p, q), and likewise umax and the
 *   signed pair;
 * - usub.sat and uadd.sat are one node each, reached from the
 *   intrinsic, the select forms select(x >u y, x - y, 0) and
 *   select(x + y <u x, -1, x + y), and umax(x, y) - y (or
 *   y - umin(x, y));
 * - abs is one node, reached from llvm.abs (either poison flag: the
 *   values agree), smax(x, 0 - x) and the sign-test selects
 *   select(x <s 0, 0 - x, x) and select(x >s -1, x, 0 - x), with the
 *   bounds 1 and 0 as well (the arms agree at x = 0);
 * - x udiv x and x sdiv x are 1, x urem x and x srem x are 0, and a
 *   zero dividend divides to 0; the instruction keeps its
 *   divide-by-zero (and INT_MIN / -1) UB term, so every input on which
 *   the rule's value is wrong is UB;
 * - division by a power of two 2^k is a shift and a mask: x udiv 2^k
 *   is x >>u k and x urem 2^k is zext(trunc(x, k)); below k = w - 1,
 *   x sdiv 2^k is (x >>s k) + (x <s 0 && trunc(x, k) != 0) and
 *   x srem 2^k is trunc(x, k) with the sign's borrow above it, so an
 *   exact division's remainder test and an exact shift's round trip
 *   ((x >> k) << k == x) are both !(trunc(x, k) != 0);
 * - a select with a constant arm commutes with trunc and zext, and
 *   with a min/max against a constant that maps the arm to itself,
 *   when the select it leaves folds; so the clamp
 *   select(x <s 0, 0, trunc(umin(x, C))) is trunc(umin(smax(x, 0), C));
 * - constant chains fold: uadd.sat(uadd.sat(x, C1), C2) is
 *   uadd.sat(x, C1 + C2) (all ones once the sum overflows), likewise
 *   usub.sat (0 once it overflows), and umax(umax(x, C1) << k, C2) is
 *   umax(x << k, C2) when C1 << k does not wrap and is at most C2;
 *   (v << k) >>u k == v is v <u 2^(w-k), and umax(x, C1) <u D is
 *   x <u D when C1 <u D;
 * - truncation and extension compose (trunc(zext(x)) = x at x's
 *   width); x & (2^k - 1) is zext(trunc(x, k)); and, or and eq of two
 *   zexts from one width act on the narrow words, zext(a) == C on a,
 *   a 1-bit word == 1 is the word, and (x >> k) == 0 is x <u 2^k;
 * - equality cancels shared add leaves: x == y is d == 0 when x - y
 *   is the single leaf +-d; zext(a) != 0 is a != 0, and or absorbs
 *   and (x | (x & y) = x) and the reverse; select(c, a, b) != 0 is
 *   c ? a != 0 : b != 0 when one arm's test folds; a nuw (nsw) trunc
 *   to n bits of zext(a) or of umin(x, C) cannot overflow when a or C
 *   fits in n (n - 1) bits;
 * - constants fold wherever two meet (add and xor leaves, min/max
 *   operands, shifts, saturating adds), and a zext's range [0, M]
 *   decides a compare against a constant it lies on one side of and
 *   drops the constant or the zext from a signed min/max as from an
 *   unsigned one;
 * - 1-bit predicates (poison, UB, the miter) absorb what they imply:
 *   p | q is q and p & q is p when p implies q, and p & q is false
 *   when p is !u and q implies u (seen through a few levels of and,
 *   or, not and select arms).
 *
 * Every rule is an identity on values alone: it holds for all operand
 * values. Flags never enter a value term; they live in the poison
 * predicates, which the encoder builds from each instruction's own
 * operands, so a rule is sound iff its value identity is
 * (tests/test_word_rules.cc checks each one exhaustively through
 * ExecPlan at i1-i8, and proves it at i64 where the solver can).
 *
 * A query that does not fold is bit-blasted whole: blastRoots() builds
 * the circuit of every term the encoder asked for, in the order it
 * asked, each through a memoized TermId -> BitVec. A node blasts with
 * the gates of the first instruction shape that created it, its
 * leaves in circuit-literal order, so the CNF is a pure function of
 * the query.
 */
class TermDag
{
  public:
    TermDag()
    {
        nodes_.reserve(64);
        refs_.reserve(128);
        reset();
    }

    /** Forget every term, keeping the buffers' capacity. */
    void reset()
    {
        nodes_.clear();
        refs_.clear();
        table_.assign(kInitialSlots, kNoTerm);
        roots_.clear();
        depth_ = 0;
        b_ = nullptr;
        args_.clear();
        bits_.clear();
    }

    unsigned width(TermId t) const { return nodes_[t].width; }

    TermId constant(const APInt &value);
    TermId arg(unsigned slot, unsigned width);

    /** The add (@p negate_y: sub) or xor chain of @p x and @p y. */
    TermId chain(Op op, TermId x, TermId y, bool negate_y = false);
    TermId mul(TermId x, TermId y);
    /** @p op is one of UMin, UMax, SMin, SMax. */
    TermId minMax(Op op, TermId x, TermId y);
    /** @p op is ULt or SLt. */
    TermId compare(Op op, TermId x, TermId y);
    TermId select(TermId sel, TermId t, TermId f);
    TermId usubSat(TermId x, TermId y);
    TermId uaddSat(TermId x, TermId y);
    TermId abs(TermId x);
    /** Quotient (or, with @p remainder, remainder) of @p x by @p y,
     *  defined where @p guard holds. */
    TermId divRem(bool is_signed, bool remainder, TermId x, TermId y,
                  TermId guard);
    /** The @p flag (kNuw or kNsw) overflow of @p op (Add, Sub or Mul)
     *  on @p x and @p y. */
    TermId overflow(Op op, uint8_t flag, TermId x, TermId y);
    /** The @p flag overflow of truncating @p x to @p dst bits. */
    TermId truncOverflow(uint8_t flag, TermId x, unsigned dst);

    /** Bitwise and/or; on 1-bit terms, the logic of poison and UB. */
    TermId andOf(TermId x, TermId y);
    TermId orOf(TermId x, TermId y);
    TermId notOf(TermId x);
    TermId eq(TermId x, TermId y);
    TermId nonZero(TermId x);
    TermId signBit(TermId x);
    TermId mux(TermId sel, TermId t, TermId f);
    TermId trunc(TermId x, unsigned width);
    TermId zext(TermId x, unsigned width);
    TermId sext(TermId x, unsigned width);
    /** Shifts, bit counts and signed saturation: no rules. */
    TermId opaque(Op op, std::initializer_list<TermId> args);

    bool isFalse(TermId t) const { return isConst(t, 0); }

    /**
     * Bit-blast every term the encoder asked for, in the order it
     * asked, over @p args (the bits of each argument slot).
     */
    void blastRoots(CircuitBuilder &builder, std::vector<BitVec> args);
    /** A term's circuit; valid after blastRoots(). */
    BitVec bits(TermId t) { return blast(t); }

  private:
    struct Node
    {
        Op op;
        uint8_t flags = 0;
        uint16_t width = 0;
        uint32_t first = 0; ///< operands are refs_[first, first + count)
        uint32_t count = 0;
        uint64_t payload = 0; ///< Const value, Arg slot, Overflow op
        /** Blasting inputs outside the identity (see blast()). */
        TermId aux = kNoTerm;
        TermId aux2 = kNoTerm;
    };

    /**
     * Counts constructor nesting so that only the terms the encoder
     * asks for directly become roots; terms a rule builds internally
     * are blasted through the root that needs them.
     */
    class Top
    {
      public:
        explicit Top(TermDag &dag) : dag_(dag) { ++dag_.depth_; }
        ~Top() { --dag_.depth_; }
        TermId
        operator()(TermId t)
        {
            if (dag_.depth_ == 1)
                dag_.roots_.push_back(t);
            return t;
        }

      private:
        TermDag &dag_;
    };

    Ref operand(TermId t, unsigned i) const
    {
        return refs_[nodes_[t].first + i];
    }
    TermId arg0(TermId t) const { return operand(t, 0).id; }
    TermId arg1(TermId t) const { return operand(t, 1).id; }
    bool isConst(TermId t) const { return nodes_[t].op == Op::Const; }
    bool isConst(TermId t, uint64_t value) const
    {
        return isConst(t) && nodes_[t].payload == value;
    }
    bool isAllOnes(TermId t) const
    {
        return isConst(t, APInt::allOnes(width(t)).zext());
    }
    APInt value(TermId t) const { return APInt(width(t), nodes_[t].payload); }
    TermId boolean(bool b) { return constant(APInt(1, b)); }

    /** Look the node up; on a miss, add it. @p fresh says which. */
    TermId intern(Op op, unsigned width, std::span<const Ref> refs,
                  uint8_t flags = 0, uint64_t payload = 0,
                  bool *fresh = nullptr);
    /** intern() of a fixed operand list, without a vector. */
    TermId intern(Op op, unsigned width, std::initializer_list<Ref> refs,
                  uint8_t flags = 0, uint64_t payload = 0,
                  bool *fresh = nullptr)
    {
        return intern(op, width, std::span<const Ref>(refs.begin(), refs.size()),
                      flags, payload, fresh);
    }
    size_t hashOf(Op op, unsigned width, const Ref *refs, size_t count,
                  uint8_t flags, uint64_t payload) const;
    void grow();

    /** The operands @p t contributes to an @p op node: its own
     *  operands when it is one, else itself. */
    Refs operandsOf(Op op, TermId t) const;
    /** Sort, cancel inverse pairs (x + -x, x ^ x) and drop zeros. */
    Refs normalize(Op op, Refs leaves) const;
    /** Normalized leaves of the @p op chain of @p x and @p y. */
    Refs combine(Op op, TermId x, TermId y, bool negate_y) const;
    /** True if @p v is 0 - @p x. */
    bool isNegationOf(TermId v, TermId x) const;
    TermId commutative(Op op, TermId x, TermId y);
    /** Replace each pair of leaves +(x & y), +(x | y) by +x, +y, and
     *  each pair -(x & y), +(x | y) by +(x ^ y) (negated pairs alike). */
    Refs splitAndOr(Refs leaves);
    /** True if @p x and @p y zero-extend words of one width. */
    bool sameExtension(TermId x, TermId y) const
    {
        return nodes_[x].op == Op::ZExt && nodes_[y].op == Op::ZExt &&
               width(arg0(x)) == width(arg0(y));
    }
    /** True if @p t is an @p op node with @p x among its operands. */
    bool hasOperand(Op op, TermId t, TermId x) const
    {
        return nodes_[t].op == op && (arg0(t) == x || arg1(t) == x);
    }
    /**
     * True if 1-bit @p a implies 1-bit @p b, as seen through at most
     * @p depth levels of and, or, not and select (false when unsure).
     */
    bool implies(TermId a, TermId b, unsigned depth) const;
    /** True if 1-bit @p a and @p b are never both true: one is !u
     *  and the other implies u. */
    bool excludes(TermId a, TermId b) const
    {
        return (nodes_[a].op == Op::Not &&
                implies(b, arg0(a), kImplicationDepth)) ||
               (nodes_[b].op == Op::Not &&
                implies(a, arg0(b), kImplicationDepth));
    }
    static constexpr unsigned kImplicationDepth = 3;
    /** Min/max set (or two-operand node) @p t less its constant
     *  operand, which goes to @p c; kNoTerm when @p t has none. */
    TermId withoutConstant(TermId t, TermId *c);
    /** k if @p s is v << k for a constant 0 < k < width (the shl node
     *  or, for k = 1, the chain v + v), with v in @p v; else 0. */
    unsigned shiftedLeft(TermId s, TermId *v) const;
    /** x << k in the encoder's own form: x + x for k = 1. */
    TermId shlConst(TermId x, unsigned k);
    /** select(sel, t, f) with its constant arm pushed below a trunc,
     *  zext or min/max of the other arm, or kNoTerm unless the select
     *  this leaves folds. */
    TermId hoistConstantArm(TermId sel, TermId t, TermId f);
    /** Division of @p x by the power of two @p y, or kNoTerm. */
    TermId divPowerOfTwo(bool is_signed, bool remainder, TermId x, TermId y);

    const BitVec &blast(TermId t);
    BitVec build(TermId t);
    BitVec minMax2(Op op, TermId x, TermId y);
    BitVec countLeadingZeros(const BitVec &x);
    BitVec countTrailingZeros(const BitVec &x);
    BitVec popCount(const BitVec &x);

    std::vector<Node> nodes_;
    std::vector<Ref> refs_;
    static constexpr size_t kInitialSlots = 128;
    std::vector<TermId> table_; ///< open-addressed, kNoTerm when empty
    std::vector<TermId> spare_; ///< grow()'s scratch, swapped with table_
    std::vector<TermId> roots_;
    unsigned depth_ = 0;

    // Blasting state.
    CircuitBuilder *b_ = nullptr;
    std::vector<BitVec> args_;
    std::vector<BitVec> bits_; ///< by TermId; empty until blasted
};

size_t
TermDag::hashOf(Op op, unsigned width, const Ref *refs, size_t count,
                uint8_t flags, uint64_t payload) const
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(static_cast<uint64_t>(op) | uint64_t(flags) << 8 |
        uint64_t(width) << 16);
    mix(payload);
    for (size_t i = 0; i < count; ++i)
        mix(uint64_t(refs[i].id) << 1 | refs[i].neg);
    return static_cast<size_t>(h ^ (h >> 29));
}

void
TermDag::grow()
{
    spare_.swap(table_);
    table_.assign(spare_.size() * 2, kNoTerm);
    const size_t mask = table_.size() - 1;
    for (TermId t : spare_) {
        if (t == kNoTerm)
            continue;
        const Node &n = nodes_[t];
        size_t slot = hashOf(n.op, n.width, refs_.data() + n.first, n.count,
                             n.flags, n.payload) & mask;
        while (table_[slot] != kNoTerm)
            slot = (slot + 1) & mask;
        table_[slot] = t;
    }
}

TermId
TermDag::intern(Op op, unsigned width, std::span<const Ref> refs,
                uint8_t flags, uint64_t payload, bool *fresh)
{
    const size_t mask = table_.size() - 1;
    size_t slot =
        hashOf(op, width, refs.data(), refs.size(), flags, payload) & mask;
    for (; table_[slot] != kNoTerm; slot = (slot + 1) & mask) {
        const Node &n = nodes_[table_[slot]];
        if (n.op == op && n.width == width && n.flags == flags &&
            n.payload == payload && n.count == refs.size() &&
            std::equal(refs.begin(), refs.end(), refs_.begin() + n.first)) {
            if (fresh)
                *fresh = false;
            return table_[slot];
        }
    }
    const TermId t = static_cast<TermId>(nodes_.size());
    Node n;
    n.op = op;
    n.flags = flags;
    n.width = static_cast<uint16_t>(width);
    n.first = static_cast<uint32_t>(refs_.size());
    n.count = static_cast<uint32_t>(refs.size());
    n.payload = payload;
    nodes_.push_back(n);
    refs_.insert(refs_.end(), refs.begin(), refs.end());
    table_[slot] = t;
    if (nodes_.size() * 2 > table_.size())
        grow();
    if (fresh)
        *fresh = true;
    return t;
}

TermId
TermDag::constant(const APInt &value)
{
    return intern(Op::Const, value.width(), {}, 0, value.zext());
}

TermId
TermDag::arg(unsigned slot, unsigned width)
{
    return intern(Op::Arg, width, {}, 0, slot);
}

Refs
TermDag::operandsOf(Op op, TermId t) const
{
    const Node &n = nodes_[t];
    if (n.op == op)
        return Refs(refs_.begin() + n.first,
                    refs_.begin() + n.first + n.count);
    return {Ref{t}};
}

Refs
TermDag::normalize(Op op, Refs leaves) const
{
    std::sort(leaves.begin(), leaves.end());
    // Inverse pairs are adjacent after the sort; zeros contribute
    // nothing to the chain.
    Refs kept;
    for (size_t i = 0; i < leaves.size();) {
        if (i + 1 < leaves.size() && leaves[i].id == leaves[i + 1].id &&
            leaves[i + 1].neg == (op == Op::Add && !leaves[i].neg)) {
            i += 2;
            continue;
        }
        if (!isConst(leaves[i].id, 0))
            kept.push_back(leaves[i]);
        ++i;
    }
    return kept;
}

Refs
TermDag::combine(Op op, TermId x, TermId y, bool negate_y) const
{
    Refs leaves = operandsOf(op, x);
    for (Ref leaf : operandsOf(op, y)) {
        leaf.neg = leaf.neg != negate_y;
        leaves.push_back(leaf);
    }
    return normalize(op, std::move(leaves));
}

TermId
TermDag::chain(Op op, TermId x, TermId y, bool negate_y)
{
    Top top(*this);
    Refs kept = combine(op, x, y, negate_y);
    if (op == Op::Add)
        kept = splitAndOr(std::move(kept));
    // Two or more constant leaves fold into one.
    if (std::count_if(kept.begin(), kept.end(), [&](const Ref &r) {
            return isConst(r.id);
        }) > 1) {
        APInt folded = APInt::zero(width(x));
        Refs rest;
        for (const Ref &r : kept) {
            if (!isConst(r.id))
                rest.push_back(r);
            else if (op == Op::Xor)
                folded = folded.xorOp(value(r.id));
            else
                folded = r.neg ? folded.sub(value(r.id))
                               : folded.add(value(r.id));
        }
        rest.push_back(Ref{constant(folded)});
        kept = normalize(op, std::move(rest));
    }
    if (kept.empty())
        return top(constant(APInt::zero(width(x))));
    if (kept.size() == 1 && !kept[0].neg)
        return top(kept[0].id);
    // umax(p, q) - q and q - umin(p, q) are usub.sat(p, q): one leaf is
    // the min/max, and the rest of the chain is exactly -q or +q.
    for (size_t i = 0; op == Op::Add && i < kept.size(); ++i) {
        const Ref leaf = kept[i];
        const Node &mm = nodes_[leaf.id];
        if (mm.op != (leaf.neg ? Op::UMin : Op::UMax) || mm.count != 2)
            continue;
        Refs rest = kept;
        rest.erase(rest.begin() + i);
        for (unsigned k = 0; k < 2; ++k) {
            const TermId p = operand(leaf.id, 1 - k).id;
            const TermId q = operand(leaf.id, k).id;
            Refs want = operandsOf(Op::Add, q);
            for (Ref &w : want)
                w.neg = w.neg == leaf.neg;
            if (normalize(Op::Add, std::move(want)) == rest)
                return top(leaf.neg ? usubSat(q, p) : usubSat(p, q));
        }
    }
    return top(intern(op, width(x), kept));
}

Refs
TermDag::splitAndOr(Refs leaves)
{
    // Each bit position adds x_i & y_i and x_i | y_i, which sum to
    // x_i + y_i and differ by x_i ^ y_i: so (x & y) + (x | y) = x + y
    // and (x | y) - (x & y) = x ^ y.
    for (size_t i = 0; i < leaves.size(); ++i) {
        if (nodes_[leaves[i].id].op != Op::And)
            continue;
        const TermId x = arg0(leaves[i].id), y = arg1(leaves[i].id);
        for (size_t j = 0; j < leaves.size(); ++j) {
            const TermId o = leaves[j].id;
            if (nodes_[o].op != Op::Or || arg0(o) != x || arg1(o) != y)
                continue;
            const bool neg = leaves[j].neg;
            Refs rest;
            for (size_t k = 0; k < leaves.size(); ++k)
                if (k != i && k != j)
                    rest.push_back(leaves[k]);
            if (leaves[i].neg == neg) {
                rest.push_back(Ref{x, neg});
                rest.push_back(Ref{y, neg});
            } else {
                for (Ref leaf : operandsOf(Op::Add, chain(Op::Xor, x, y))) {
                    leaf.neg = leaf.neg != neg;
                    rest.push_back(leaf);
                }
            }
            return splitAndOr(normalize(Op::Add, std::move(rest)));
        }
    }
    return leaves;
}

TermId
TermDag::mul(TermId x, TermId y)
{
    Top top(*this);
    const unsigned w = width(x);
    // A 1-bit product is the and of its factors.
    if (w == 1)
        return top(andOf(x, y));
    APInt c = APInt::one(w);
    Refs factors;
    for (TermId side : {x, y}) {
        for (Ref f : operandsOf(Op::Mul, side)) {
            if (isConst(f.id))
                c = c.mul(value(f.id));
            else
                factors.push_back(f);
        }
    }
    if (c.isZero() || factors.empty())
        return top(constant(c));
    if (factors.size() == 1 && c.isOne())
        return top(factors[0].id);
    std::sort(factors.begin(), factors.end());
    if (!c.isOne())
        factors.push_back(Ref{constant(c)});
    bool fresh = false;
    const TermId t = intern(Op::Mul, w, factors, 0, 0, &fresh);
    if (fresh) {
        // Blast as this instruction's own product, constant factors
        // folded: (v * c1) * c2 multiplies v by c1 * c2.
        TermId v = x, k = y;
        if (isConst(v))
            std::swap(v, k);
        if (isConst(k) && !isConst(v) && nodes_[v].op == Op::Mul &&
            isConst(nodes_[v].aux2)) {
            k = constant(value(nodes_[v].aux2).mul(value(k)));
            v = nodes_[v].aux;
        }
        nodes_[t].aux = v;
        nodes_[t].aux2 = k;
    }
    return top(t);
}

TermId
TermDag::minMax(Op op, TermId x, TermId y)
{
    Top top(*this);
    const unsigned w = width(x);
    const bool is_min = op == Op::UMin || op == Op::SMin;
    const bool is_signed = op == Op::SMin || op == Op::SMax;
    const APInt lowest = is_signed ? APInt::signedMin(w) : APInt::zero(w);
    const APInt highest =
        is_signed ? APInt::signedMax(w) : APInt::allOnes(w);
    const uint64_t identity = (is_min ? highest : lowest).zext();
    const uint64_t absorbing = (is_min ? lowest : highest).zext();

    Refs kept = operandsOf(op, x);
    Refs more = operandsOf(op, y);
    kept.insert(kept.end(), more.begin(), more.end());
    // Constant operands fold into their extreme.
    std::optional<APInt> extreme;
    Refs rest;
    for (const Ref &r : kept) {
        if (!isConst(r.id)) {
            rest.push_back(r);
            continue;
        }
        const APInt c = value(r.id);
        extreme = !extreme ? c
                  : op == Op::UMin ? extreme->umin(c)
                  : op == Op::UMax ? extreme->umax(c)
                  : op == Op::SMin ? extreme->smin(c)
                                   : extreme->smax(c);
    }
    if (extreme)
        rest.push_back(Ref{constant(*extreme)});
    kept = std::move(rest);
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    for (const Ref &r : kept)
        if (isConst(r.id, absorbing))
            return top(r.id);
    // umax(umax(v, C1) << k, C2) = umax(v << k, C2) when C1 << k does
    // not wrap and is at most C2: where v <u C1, v << k <u C1 << k
    // <= C2 (no wrap either), so both sides are C2.
    const auto c2 = std::find_if(kept.begin(), kept.end(),
                                 [&](const Ref &r) { return isConst(r.id); });
    if (op == Op::UMax && c2 != kept.end()) {
        const APInt bound = value(c2->id);
        for (Ref &r : kept) {
            TermId inner = kNoTerm, c1 = kNoTerm;
            const unsigned k = shiftedLeft(r.id, &inner);
            if (k == 0 || nodes_[inner].op != Op::UMax)
                continue;
            const TermId v = withoutConstant(inner, &c1);
            if (v == kNoTerm)
                continue;
            const APInt shifted = value(c1).shl(k);
            if (shifted.lshr(k) == value(c1) && shifted.ule(bound))
                r = Ref{shlConst(v, k)};
        }
        std::sort(kept.begin(), kept.end());
        kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    }
    // A zero-extended operand lies in [0, M], M its source's maximum
    // (signed too: it comes from fewer bits). A constant at or above M
    // is never below it: a min drops the constant, a max the
    // extension; a constant at or below 0 the other way round.
    {
        auto ordered = [&](const APInt &a, const APInt &b) {
            return is_signed ? a.sle(b) : a.ule(b);
        };
        // True if zext @p z is never above constant @p c.
        auto below = [&](const Ref &z, const Ref &c) {
            return nodes_[z.id].op == Op::ZExt && isConst(c.id) &&
                   ordered(APInt::allOnes(width(arg0(z.id))).zextTo(w),
                           value(c.id));
        };
        // True if constant @p c is never above zext @p z.
        auto above = [&](const Ref &z, const Ref &c) {
            return nodes_[z.id].op == Op::ZExt && isConst(c.id) &&
                   ordered(value(c.id), APInt::zero(w));
        };
        Refs rest;
        for (const Ref &r : kept) {
            bool dominated = std::any_of(
                kept.begin(), kept.end(), [&](const Ref &other) {
                    return is_min ? below(other, r) || above(r, other)
                                  : below(r, other) || above(other, r);
                });
            if (!dominated)
                rest.push_back(r);
        }
        kept = std::move(rest);
    }
    // An and never exceeds its operand and an or never falls below it,
    // so umin(x, x & y) = x & y and umax(x, x | y) = x | y for any y
    // (poison too: x & y is poison exactly when x or y is). A low mask
    // of x is zext(trunc(x)) here, an and all the same. Each drop is
    // justified by an operand still in the set.
    if (!is_signed) {
        const Op bound = is_min ? Op::And : Op::Or;
        auto lowBitsOf = [&](TermId t, TermId x) {
            return is_min && nodes_[t].op == Op::ZExt &&
                   nodes_[arg0(t)].op == Op::Trunc && arg0(arg0(t)) == x;
        };
        for (size_t i = 0; i < kept.size();) {
            const TermId x = kept[i].id;
            const bool bounded =
                std::any_of(kept.begin(), kept.end(), [&](const Ref &r) {
                    return hasOperand(bound, r.id, x) || lowBitsOf(r.id, x);
                });
            if (bounded)
                kept.erase(kept.begin() + i);
            else
                ++i;
        }
    }
    // Absorption: drop an operand that is the dual of operands one of
    // which is still in the set, since that one is on its side of it
    // (umin(a, umax(a, b)) = a). Each drop is justified by an operand
    // present at the time, so the extreme never changes. The identity
    // element never decides the extreme.
    Op dual = op == Op::UMin   ? Op::UMax
              : op == Op::UMax ? Op::UMin
              : op == Op::SMin ? Op::SMax
                               : Op::SMin;
    for (size_t i = 0; i < kept.size();) {
        const Node &d = nodes_[kept[i].id];
        bool absorbed = isConst(kept[i].id, identity) && kept.size() > 1;
        for (uint32_t j = 0; !absorbed && d.op == dual && j < d.count; ++j) {
            const Ref inner = refs_[d.first + j];
            absorbed = inner != kept[i] &&
                       std::binary_search(kept.begin(), kept.end(), inner);
        }
        if (absorbed)
            kept.erase(kept.begin() + i);
        else
            ++i;
    }
    if (kept.size() == 1)
        return top(kept[0].id);
    // smax(x, 0 - x) is abs(x), INT_MIN included (both are INT_MIN).
    for (size_t k = 0; op == Op::SMax && kept.size() == 2 && k < 2; ++k)
        if (isNegationOf(kept[1 - k].id, kept[k].id))
            return top(abs(kept[k].id));
    return top(intern(op, w, kept));
}

TermId
TermDag::compare(Op op, TermId x, TermId y)
{
    Top top(*this);
    if (isConst(x) && isConst(y))
        return top(boolean(op == Op::ULt ? value(x).ult(value(y))
                                         : value(x).slt(value(y))));
    // Against a constant, a zero-extended word's range [0, M] may
    // decide the comparison; nothing is below 0 or above all ones.
    const bool is_signed = op == Op::SLt;
    auto ordered = [&](const APInt &a, const APInt &b) {
        return is_signed ? a.slt(b) : a.ult(b);
    };
    for (unsigned side = 0; side < 2; ++side) {
        const TermId z = side ? y : x, c = side ? x : y;
        if (!isConst(c))
            continue;
        const APInt low = is_signed ? APInt::signedMin(width(c))
                                    : APInt::zero(width(c));
        const APInt high = is_signed ? APInt::signedMax(width(c))
                                     : APInt::allOnes(width(c));
        if (value(c) == (side ? high : low))
            return top(boolean(false));
        if (nodes_[z].op != Op::ZExt)
            continue;
        const APInt zero = APInt::zero(width(c));
        const APInt zmax = APInt::allOnes(width(arg0(z))).zextTo(width(c));
        // z < C: true when M < C, false when C <= 0.
        // C < z: true when C < 0, false when M <= C.
        const APInt &lo = side ? value(c) : zmax;
        const APInt &hi = side ? zero : value(c);
        if (ordered(lo, hi))
            return top(boolean(true));
        if (side ? !ordered(value(c), zmax) : !ordered(zero, value(c)))
            return top(boolean(false));
    }
    // umax(v, C) <u D is v <u D when C <u D, and false otherwise.
    if (op == Op::ULt && isConst(y) && nodes_[x].op == Op::UMax) {
        TermId c = kNoTerm;
        const TermId v = withoutConstant(x, &c);
        if (v != kNoTerm)
            return top(value(c).ult(value(y)) ? compare(op, v, y)
                                              : boolean(false));
    }
    bool fresh = false;
    const TermId t = intern(op, 1, {Ref{x}, Ref{y}}, 0, 0, &fresh);
    // x <s y is blasted from x - y, an add chain, so it cancels shared
    // leaves: (a + b) <s (a - b) reads the sign of b + b.
    if (fresh && op == Op::SLt) {
        const TermId d = chain(Op::Add, x, y, true);
        nodes_[t].aux = d;
    }
    return top(t);
}

TermId
TermDag::select(TermId sel, TermId t, TermId f)
{
    Top top(*this);
    // Normalize the condition to a positive comparator node.
    TermId tv = t, fv = f, cmp = kNoTerm;
    if (nodes_[sel].op == Op::ULt || nodes_[sel].op == Op::SLt) {
        cmp = sel;
    } else if (nodes_[sel].op == Op::Not) {
        const TermId inner = arg0(sel);
        if (nodes_[inner].op == Op::ULt || nodes_[inner].op == Op::SLt) {
            cmp = inner;
            std::swap(tv, fv);
        }
    }
    // Past every rule below: a constant arm may still fold once it
    // moves under the other arm's trunc, zext or min/max.
    auto otherwise = [&] {
        const TermId h = hoistConstantArm(sel, t, f);
        return h != kNoTerm ? h : mux(sel, t, f);
    };
    if (cmp == kNoTerm)
        return top(otherwise());
    const TermId p = arg0(cmp);
    const TermId q = arg1(cmp);
    // select(p < q, p, q) = min(p, q); select(p < q, q, p) = max(p, q).
    const bool is_signed = nodes_[cmp].op == Op::SLt;
    if (tv == p && fv == q)
        return top(minMax(is_signed ? Op::SMin : Op::UMin, p, q));
    if (tv == q && fv == p)
        return top(minMax(is_signed ? Op::SMax : Op::UMax, p, q));

    if (is_signed) {
        // Sign tests: x <s 0 and x <s 1 pick 0 - x; 0 <s x and -1 <s x
        // pick x.
        if ((isConst(q, 0) || isConst(q, 1)) && fv == p &&
            isNegationOf(tv, p))
            return top(abs(p));
        if ((isConst(p, 0) || isAllOnes(p)) && tv == q &&
            isNegationOf(fv, q))
            return top(abs(q));
        // The same tests against the arm 0 clamp at 0 (the arms agree
        // at x = 0): x <s 1 ? 0 : x is smax(x, 0), -1 <s x ? 0 : x is
        // smin(x, 0), and the swapped arms the other way round.
        const bool below = isConst(q, 0) || (isConst(q, 1) && width(q) > 1);
        const bool above = isConst(p, 0) || isAllOnes(p);
        const TermId x = below ? p : q;
        if ((below || above) && (isConst(tv, 0) || isConst(fv, 0)) &&
            (tv == x || fv == x)) {
            const bool zero_when_true = isConst(tv, 0);
            const TermId zero = zero_when_true ? tv : fv;
            return top(minMax(zero_when_true == below ? Op::SMax : Op::SMin,
                              x, zero));
        }
        return top(otherwise());
    }
    auto leavesOf = [&](TermId v) {
        return normalize(Op::Add, operandsOf(Op::Add, v));
    };
    // select(p <u q, 0, p - q) = usub.sat(p, q);
    // select(p <u q, q - p, 0) = usub.sat(q, p).
    if (isConst(tv, 0) && leavesOf(fv) == combine(Op::Add, p, q, true))
        return top(usubSat(p, q));
    if (isConst(fv, 0) && leavesOf(tv) == combine(Op::Add, q, p, true))
        return top(usubSat(q, p));
    // select(q + r <u q, -1, q + r) = uadd.sat(q, r): the wrapped sum
    // is below an addend exactly when the addition overflows.
    if (isAllOnes(tv) && fv == p) {
        Refs r = combine(Op::Add, p, q, true);
        if (r.size() == 1 && !r[0].neg)
            return top(uaddSat(q, r[0].id));
    }
    return top(otherwise());
}

TermId
TermDag::usubSat(TermId x, TermId y)
{
    Top top(*this);
    if (isConst(x) && isConst(y))
        return top(value(x).ult(value(y)) ? constant(APInt::zero(width(x)))
                                          : constant(value(x).sub(value(y))));
    // usub.sat(usub.sat(v, C1), C2) takes C1 + C2 off v at once, and
    // leaves 0 when that sum overflows.
    if (isConst(y) && nodes_[x].op == Op::USubSat && isConst(arg1(x))) {
        const APInt c1 = value(arg1(x)), c2 = value(y);
        return top(c1.addOverflowsUnsigned(c2)
                       ? constant(APInt::zero(width(x)))
                       : usubSat(arg0(x), constant(c1.add(c2))));
    }
    bool fresh = false;
    const TermId t =
        intern(Op::USubSat, width(x), {Ref{x}, Ref{y}}, 0, 0, &fresh);
    if (fresh) {
        const TermId lt = compare(Op::ULt, x, y);
        nodes_[t].aux = lt;
    }
    return top(t);
}

bool
TermDag::isNegationOf(TermId v, TermId x) const
{
    return normalize(Op::Add, operandsOf(Op::Add, v)) == Refs{Ref{x, true}};
}

TermId
TermDag::abs(TermId x)
{
    Top top(*this);
    bool fresh = false;
    const TermId t = intern(Op::Abs, width(x), {Ref{x}}, 0, 0, &fresh);
    if (fresh) {
        const TermId neg =
            chain(Op::Add, constant(APInt::zero(width(x))), x, true);
        nodes_[t].aux = neg;
    }
    return top(t);
}

TermId
TermDag::uaddSat(TermId x, TermId y)
{
    Top top(*this);
    if (isConst(x))
        std::swap(x, y);
    if (isConst(x))
        return top(value(x).addOverflowsUnsigned(value(y))
                       ? constant(APInt::allOnes(width(x)))
                       : constant(value(x).add(value(y))));
    // uadd.sat(uadd.sat(v, C1), C2) adds C1 + C2 at once, and saturates
    // to all ones when that sum overflows (the result is at least it).
    TermId c1 = kNoTerm;
    if (isConst(y) && nodes_[x].op == Op::UAddSat) {
        const TermId v = withoutConstant(x, &c1);
        if (v != kNoTerm) {
            const APInt a = value(c1), b = value(y);
            return top(a.addOverflowsUnsigned(b)
                           ? constant(APInt::allOnes(width(x)))
                           : uaddSat(v, constant(a.add(b))));
        }
    }
    return top(commutative(Op::UAddSat, x, y));
}

TermId
TermDag::divRem(bool is_signed, bool remainder, TermId x, TermId y,
                TermId guard)
{
    Top top(*this);
    const unsigned w = width(x);
    // x / x = 1 and x % x = 0 wherever the division is defined; so is
    // 0 / y = 0 % y = 0. Where it is not, the caller's UB term holds.
    if (x == y)
        return top(constant(APInt(w, remainder ? 0 : 1)));
    if (isConst(x, 0))
        return top(x);
    if (TermId p = divPowerOfTwo(is_signed, remainder, x, y); p != kNoTerm)
        return top(p);
    uint8_t flags = (is_signed ? kSigned : 0) | (remainder ? kRemainder : 0);
    return top(intern(Op::Div, w, {Ref{x}, Ref{y}, Ref{guard}}, flags));
}

TermId
TermDag::divPowerOfTwo(bool is_signed, bool remainder, TermId x, TermId y)
{
    const unsigned w = width(x);
    if (!isConst(y) || !value(y).isPowerOf2())
        return kNoTerm;
    const unsigned k = value(y).countTrailingZeros();
    // 2^(w-1) is INT_MIN to a signed division: no shift.
    if (is_signed && k + 1 >= w)
        return kNoTerm;
    if (k == 0)
        return remainder ? constant(APInt::zero(w)) : x;
    const TermId amount = constant(APInt(w, k));
    if (!is_signed)
        return remainder ? andOf(x, constant(APInt::allOnes(k).zextTo(w)))
                         : opaque(Op::LShr, {x, amount});
    // Signed division truncates toward zero: a negative dividend with
    // low bits set rounds up from x >>s k, and its remainder is the
    // low bits less 2^k (the low bits with every bit above them set).
    const TermId low = trunc(x, k);
    const TermId round_up = andOf(signBit(x), nonZero(low));
    if (!remainder)
        return chain(Op::Add, opaque(Op::AShr, {x, amount}),
                     zext(round_up, w));
    const TermId rem = zext(low, w);
    return mux(round_up, orOf(rem, constant(APInt::allOnes(w).shl(k))), rem);
}

TermId
TermDag::withoutConstant(TermId t, TermId *c)
{
    const Node n = nodes_[t];
    *c = kNoTerm;
    for (uint32_t i = 0; i < n.count && *c == kNoTerm; ++i)
        if (isConst(refs_[n.first + i].id))
            *c = refs_[n.first + i].id;
    if (*c == kNoTerm)
        return kNoTerm;
    TermId rest = kNoTerm;
    for (uint32_t i = 0; i < n.count; ++i) {
        const TermId o = refs_[n.first + i].id;
        if (o != *c)
            rest = rest == kNoTerm ? o : minMax(n.op, rest, o);
    }
    return rest;
}

bool
TermDag::implies(TermId a, TermId b, unsigned depth) const
{
    if (a == b || isConst(a, 0) || isConst(b, 1))
        return true;
    if (depth-- == 0)
        return false;
    const Op pa = nodes_[a].op, pb = nodes_[b].op;
    auto both = [&](TermId p, TermId q, TermId c) {
        return implies(p, c, depth) && implies(q, c, depth);
    };
    if (pa == Op::And && (implies(arg0(a), b, depth) ||
                          implies(arg1(a), b, depth)))
        return true;
    if (pa == Op::Or && both(arg0(a), arg1(a), b))
        return true;
    // A select implies what both its arms imply.
    if (pa == Op::Select && both(operand(a, 1).id, operand(a, 2).id, b))
        return true;
    if (pb == Op::Or &&
        (implies(a, arg0(b), depth) || implies(a, arg1(b), depth)))
        return true;
    if (pb == Op::And && implies(a, arg0(b), depth) &&
        implies(a, arg1(b), depth))
        return true;
    return pa == Op::Not && pb == Op::Not && implies(arg0(b), arg0(a), depth);
}

unsigned
TermDag::shiftedLeft(TermId s, TermId *v) const
{
    const Node &n = nodes_[s];
    if (n.op == Op::Shl && isConst(arg1(s)) && nodes_[arg1(s)].payload > 0 &&
        nodes_[arg1(s)].payload < n.width) {
        *v = arg0(s);
        return static_cast<unsigned>(nodes_[arg1(s)].payload);
    }
    if (n.op == Op::Add && n.count == 2 && n.width > 1 &&
        operand(s, 0) == operand(s, 1) && !operand(s, 0).neg) {
        *v = arg0(s);
        return 1;
    }
    return 0;
}

TermId
TermDag::shlConst(TermId x, unsigned k)
{
    if (k == 1)
        return chain(Op::Add, x, x);
    return opaque(Op::Shl, {x, constant(APInt(width(x), k))});
}

TermId
TermDag::hoistConstantArm(TermId sel, TermId t, TermId f)
{
    const bool const_t = isConst(t);
    if (const_t == isConst(f))
        return kNoTerm;
    const TermId k = const_t ? t : f;
    const TermId v = const_t ? f : t;
    const unsigned w = width(v);
    // The select with the arm moved down, if some rule folds it.
    auto folded = [&](TermId k2, TermId v2) {
        const TermId s = const_t ? select(sel, k2, v2) : select(sel, v2, k2);
        return nodes_[s].op == Op::Select ? kNoTerm : s;
    };
    const Op op = nodes_[v].op;
    TermId s = kNoTerm;
    if (op == Op::Trunc) {
        // select(c, K, trunc(a)) = trunc(select(c, zext(K), a)).
        const TermId a = arg0(v);
        s = folded(constant(value(k).zextTo(width(a))), a);
        return s == kNoTerm ? kNoTerm : trunc(s, w);
    }
    if (op == Op::ZExt) {
        // select(c, K, zext(a)) = zext(select(c, trunc(K), a)) when K
        // is a zero extension itself.
        const TermId a = arg0(v);
        const APInt narrow = value(k).truncTo(width(a));
        if (narrow.zextTo(w) != value(k))
            return kNoTerm;
        s = folded(constant(narrow), a);
        return s == kNoTerm ? kNoTerm : zext(s, w);
    }
    if (op != Op::UMin && op != Op::UMax && op != Op::SMin && op != Op::SMax)
        return kNoTerm;
    // select(c, K, op(a, C)) = op(select(c, K, a), C) when op(K, C) = K.
    TermId c = kNoTerm;
    const TermId a = withoutConstant(v, &c);
    if (a == kNoTerm)
        return kNoTerm;
    const APInt kv = value(k), cv = value(c);
    const APInt mapped = op == Op::UMin   ? kv.umin(cv)
                         : op == Op::UMax ? kv.umax(cv)
                         : op == Op::SMin ? kv.smin(cv)
                                          : kv.smax(cv);
    if (mapped != kv)
        return kNoTerm;
    s = folded(k, a);
    return s == kNoTerm ? kNoTerm : minMax(op, s, c);
}

TermId
TermDag::overflow(Op op, uint8_t flag, TermId x, TermId y)
{
    Top top(*this);
    if (isConst(x) && isConst(y)) {
        const APInt a = value(x), b = value(y);
        const bool u = flag == kNuw;
        switch (op) {
          case Op::Add:
            return top(boolean(u ? a.addOverflowsUnsigned(b)
                                 : a.addOverflowsSigned(b)));
          case Op::Sub:
            return top(boolean(u ? a.subOverflowsUnsigned(b)
                                 : a.subOverflowsSigned(b)));
          default:
            return top(boolean(u ? a.mulOverflowsUnsigned(b)
                                 : a.mulOverflowsSigned(b)));
        }
    }
    // Add and mul overflow are symmetric; the circuit keeps the
    // operand order of the instruction that created the node.
    Ref key[] = {Ref{x}, Ref{y}};
    if (op != Op::Sub && y < x)
        std::swap(key[0], key[1]);
    bool fresh = false;
    const TermId t = intern(Op::Overflow, 1, key, flag,
                            static_cast<uint64_t>(op), &fresh);
    if (fresh) {
        nodes_[t].aux = x;
        nodes_[t].aux2 = y;
    }
    return top(t);
}

TermId
TermDag::truncOverflow(uint8_t flag, TermId x, unsigned dst)
{
    Top top(*this);
    if (isConst(x)) {
        const APInt v = value(x);
        const APInt back = flag == kNuw ? v.truncTo(dst).zextTo(v.width())
                                        : v.truncTo(dst).sextTo(v.width());
        return top(boolean(back.ne(v)));
    }
    // A value known to fit in dst bits (dst - 1 for nsw) survives the
    // round trip: zext of a narrow enough word, or a umin with a small
    // enough constant.
    const unsigned fits = flag == kNuw ? dst : dst - 1;
    const Node &n = nodes_[x];
    if (n.op == Op::ZExt && width(arg0(x)) <= fits)
        return top(boolean(false));
    for (uint32_t i = 0; n.op == Op::UMin && i < n.count; ++i) {
        const TermId c = operand(x, i).id;
        if (isConst(c) && width(x) - value(c).countLeadingZeros() <= fits)
            return top(boolean(false));
    }
    return top(intern(Op::Overflow, 1, {Ref{x}}, flag,
                      static_cast<uint64_t>(Op::Trunc) | uint64_t(dst) << 8));
}

TermId
TermDag::commutative(Op op, TermId x, TermId y)
{
    if (y < x)
        std::swap(x, y);
    return intern(op, width(x), {Ref{x}, Ref{y}});
}

TermId
TermDag::andOf(TermId x, TermId y)
{
    Top top(*this);
    const unsigned w = width(x);
    if (isConst(x) && isConst(y))
        return top(constant(value(x).andOp(value(y))));
    if (isConst(y))
        std::swap(x, y);
    if (isConst(x, 0) || x == y)
        return top(isConst(x, 0) ? x : y);
    if (isAllOnes(x))
        return top(y);
    // A low mask keeps the low bits: x & (2^k - 1) = zext(trunc(x)).
    if (isConst(x) && value(x).add(APInt::one(w)).isPowerOf2())
        return top(zext(trunc(y, w - value(x).countLeadingZeros()), w));
    if (sameExtension(x, y))
        return top(zext(andOf(arg0(x), arg0(y)), w));
    if (w == 1 && ((nodes_[x].op == Op::Not && arg0(x) == y) ||
                   (nodes_[y].op == Op::Not && arg0(y) == x)))
        return top(boolean(false));
    // Absorption: x & (x | y) = x.
    if (hasOperand(Op::Or, y, x) || hasOperand(Op::Or, x, y))
        return top(hasOperand(Op::Or, y, x) ? x : y);
    if (w == 1) {
        // Predicates: p & q is p when p implies q, false when they
        // exclude each other, and p & (q | r) is p & r when p excludes q.
        if (implies(x, y, kImplicationDepth))
            return top(x);
        if (implies(y, x, kImplicationDepth))
            return top(y);
        if (excludes(x, y))
            return top(boolean(false));
        for (unsigned side = 0; side < 2; ++side) {
            const TermId p = side ? y : x, o = side ? x : y;
            if (nodes_[o].op != Op::Or)
                continue;
            if (excludes(p, arg0(o)))
                return top(andOf(p, arg1(o)));
            if (excludes(p, arg1(o)))
                return top(andOf(p, arg0(o)));
        }
    }
    return top(commutative(Op::And, x, y));
}

TermId
TermDag::orOf(TermId x, TermId y)
{
    Top top(*this);
    const unsigned w = width(x);
    if (isConst(x) && isConst(y))
        return top(constant(value(x).orOp(value(y))));
    if (isConst(y))
        std::swap(x, y);
    if (isConst(x, 0) || x == y)
        return top(y);
    if (isAllOnes(x))
        return top(x);
    if (sameExtension(x, y))
        return top(zext(orOf(arg0(x), arg0(y)), w));
    if (w == 1 && ((nodes_[x].op == Op::Not && arg0(x) == y) ||
                   (nodes_[y].op == Op::Not && arg0(y) == x)))
        return top(boolean(true));
    // Absorption: x | (x & y) = x; for predicates, p | q is q when p
    // implies q.
    if (hasOperand(Op::And, y, x) || hasOperand(Op::And, x, y))
        return top(hasOperand(Op::And, y, x) ? x : y);
    if (w == 1 && implies(x, y, kImplicationDepth))
        return top(y);
    if (w == 1 && implies(y, x, kImplicationDepth))
        return top(x);
    return top(commutative(Op::Or, x, y));
}

TermId
TermDag::notOf(TermId x)
{
    Top top(*this);
    assert(width(x) == 1);
    if (isConst(x))
        return top(boolean(isConst(x, 0)));
    if (nodes_[x].op == Op::Not)
        return top(arg0(x));
    return top(intern(Op::Not, 1, {Ref{x}}));
}

TermId
TermDag::eq(TermId x, TermId y)
{
    Top top(*this);
    if (x == y)
        return top(boolean(true));
    if (isConst(x) && isConst(y))
        return top(boolean(false));
    if (sameExtension(x, y))
        return top(eq(arg0(x), arg0(y)));
    const unsigned w = width(x);
    // Addition is a bijection: x == y is d == 0 when x - y is +-d.
    if (!isConst(x, 0) && !isConst(y, 0)) {
        const Refs d = combine(Op::Add, x, y, true);
        if (d.empty())
            return top(boolean(true));
        if (d.size() == 1)
            return top(eq(d[0].id, constant(APInt::zero(w))));
    }
    // Shift round trips. (x >> k) << k == x asks that x's low k bits
    // be 0; (v << k) >>u k == v asks that v's high k bits be 0.
    for (unsigned side = 0; side < 2; ++side) {
        const TermId round = side ? y : x, other = side ? x : y;
        TermId v = kNoTerm;
        const unsigned k = shiftedLeft(round, &v);
        if (k && (nodes_[v].op == Op::LShr || nodes_[v].op == Op::AShr) &&
            arg0(v) == other && isConst(arg1(v), k))
            return top(notOf(nonZero(trunc(other, k))));
        if (nodes_[round].op != Op::LShr || !isConst(arg1(round)))
            continue;
        const uint64_t amount = nodes_[arg1(round)].payload;
        if (amount > 0 && shiftedLeft(arg0(round), &v) == amount &&
            v == other)
            return top(compare(Op::ULt, other,
                               constant(APInt::one(w).shl(
                                   w - static_cast<unsigned>(amount)))));
    }
    if (isConst(x))
        std::swap(x, y);
    if (isConst(y)) {
        const APInt c = value(y);
        // A 1-bit word is its own test for 1.
        if (w == 1)
            return top(c.isZero() ? notOf(x) : x);
        // zext(a) == c asks a == c when c fits in a, and never holds
        // otherwise.
        if (nodes_[x].op == Op::ZExt) {
            const TermId a = arg0(x);
            if (c.truncTo(width(a)).zextTo(w).ne(c))
                return top(boolean(false));
            return top(eq(a, constant(c.truncTo(width(a)))));
        }
        // (a >> k) == 0 asks a <u 2^k.
        if (c.isZero() && nodes_[x].op == Op::LShr && isConst(arg1(x)) &&
            nodes_[arg1(x)].payload < w)
            return top(compare(
                Op::ULt, arg0(x),
                constant(APInt::one(w).shl(
                    static_cast<unsigned>(nodes_[arg1(x)].payload)))));
        // x == 0 is !(x != 0), the same gates, and nonZero's rules
        // apply.
        if (c.isZero())
            return top(notOf(nonZero(x)));
    }
    if (y < x)
        std::swap(x, y);
    return top(intern(Op::Eq, 1, {Ref{x}, Ref{y}}));
}

TermId
TermDag::nonZero(TermId x)
{
    Top top(*this);
    if (isConst(x))
        return top(boolean(!isConst(x, 0)));
    const Op op = nodes_[x].op;
    if (op == Op::ZExt)
        return top(nonZero(arg0(x)));
    // orOf drops a zero operand, so a constant one is nonzero.
    if (op == Op::Or && (isConst(arg0(x)) || isConst(arg1(x))))
        return top(boolean(true));
    // select(c, a, b) != 0 is c ? a != 0 : b != 0; kept as a mux of
    // words unless one arm's test folds to a constant.
    if (op == Op::Select) {
        const TermId c = arg0(x), a = operand(x, 1).id, b = operand(x, 2).id;
        const TermId na = nonZero(a), nb = nonZero(b);
        if (isConst(na))
            return top(isConst(na, 0) ? andOf(notOf(c), nb) : orOf(c, nb));
        if (isConst(nb))
            return top(isConst(nb, 0) ? andOf(c, na) : orOf(notOf(c), na));
    }
    return top(intern(Op::NonZero, 1, {Ref{x}}));
}

TermId
TermDag::signBit(TermId x)
{
    Top top(*this);
    if (isConst(x))
        return top(boolean(value(x).isSignBitSet()));
    return top(intern(Op::SignBit, 1, {Ref{x}}));
}

TermId
TermDag::mux(TermId sel, TermId t, TermId f)
{
    Top top(*this);
    if (isConst(sel))
        return top(isConst(sel, 0) ? f : t);
    if (t == f)
        return top(t);
    return top(intern(Op::Select, width(t), {Ref{sel}, Ref{t}, Ref{f}}));
}

TermId
TermDag::trunc(TermId x, unsigned w)
{
    Top top(*this);
    if (width(x) == w)
        return top(x);
    if (isConst(x))
        return top(constant(value(x).truncTo(w)));
    const Node &n = nodes_[x];
    if (n.op == Op::Trunc || n.op == Op::ZExt || n.op == Op::SExt) {
        // Resizing keeps the inner term's low bits, and above them the
        // extension's fill.
        const TermId inner = arg0(x);
        if (n.op == Op::Trunc || w <= width(inner))
            return top(trunc(inner, w));
        return top(n.op == Op::ZExt ? zext(inner, w) : sext(inner, w));
    }
    return top(intern(Op::Trunc, w, {Ref{x}}));
}

TermId
TermDag::zext(TermId x, unsigned w)
{
    Top top(*this);
    if (width(x) == w)
        return top(x);
    if (isConst(x))
        return top(constant(value(x).zextTo(w)));
    if (nodes_[x].op == Op::ZExt)
        return top(zext(arg0(x), w));
    return top(intern(Op::ZExt, w, {Ref{x}}));
}

TermId
TermDag::sext(TermId x, unsigned w)
{
    Top top(*this);
    if (width(x) == w)
        return top(x);
    if (isConst(x))
        return top(constant(value(x).sextTo(w)));
    // A zero-extended word's sign bit is a zero fill bit.
    if (nodes_[x].op == Op::ZExt)
        return top(zext(arg0(x), w));
    if (nodes_[x].op == Op::SExt)
        return top(sext(arg0(x), w));
    return top(intern(Op::SExt, w, {Ref{x}}));
}

TermId
TermDag::opaque(Op op, std::initializer_list<TermId> args)
{
    Top top(*this);
    Refs refs;
    for (TermId a : args)
        refs.push_back(Ref{a});
    const TermId x = refs[0].id;
    // A constant shifted by a constant amount below its width folds.
    if ((op == Op::Shl || op == Op::LShr || op == Op::AShr) &&
        isConst(x) && isConst(refs[1].id) &&
        nodes_[refs[1].id].payload < width(x)) {
        const unsigned k = static_cast<unsigned>(nodes_[refs[1].id].payload);
        return top(constant(op == Op::Shl    ? value(x).shl(k)
                            : op == Op::LShr ? value(x).lshr(k)
                                             : value(x).ashr(k)));
    }
    return top(intern(op, width(x), refs));
}

// ---------------------------------------------------------------------
// Bit-blasting
// ---------------------------------------------------------------------

void
TermDag::blastRoots(CircuitBuilder &builder, std::vector<BitVec> args)
{
    b_ = &builder;
    args_ = std::move(args);
    // Terms a blast creates (a min/max fold's comparators) are not
    // roots.
    ++depth_;
    for (size_t i = 0; i < roots_.size(); ++i)
        blast(roots_[i]);
}

const BitVec &
TermDag::blast(TermId t)
{
    // No term is 0 bits wide, so an empty entry is one not yet built.
    if (t >= bits_.size() || bits_[t].empty()) {
        BitVec out = build(t); // may add nodes
        bits_.resize(nodes_.size());
        bits_[t] = std::move(out);
    }
    return bits_[t];
}

/** The two-operand min/max circuit, in canonical operand order. */
BitVec
TermDag::minMax2(Op op, TermId x, TermId y)
{
    // A constant goes second: p <u C folds the borrow chain below C's
    // lowest set bit, and p <s 0 is p's sign bit.
    BitVec xb = blast(x), yb = blast(y);
    bool x_const = isConstBV(xb), y_const = isConstBV(yb);
    if (x_const != y_const ? x_const : laneOrderedBefore(yb, xb)) {
        std::swap(x, y);
        std::swap(xb, yb);
    }
    const bool is_signed = op == Op::SMin || op == Op::SMax;
    const CLit lt = blast(compare(is_signed ? Op::SLt : Op::ULt, x, y))[0];
    const bool is_min = op == Op::UMin || op == Op::SMin;
    return is_min ? b_->bvMux(lt, xb, yb) : b_->bvMux(lt, yb, xb);
}

BitVec
TermDag::popCount(const BitVec &x)
{
    unsigned width = x.size();
    BitVec acc = CircuitBuilder::constBV(APInt::zero(width));
    for (CLit bit : x) {
        BitVec addend = CircuitBuilder::constBV(APInt::zero(width));
        addend[0] = bit;
        acc = b_->bvAdd(acc, addend);
    }
    return acc;
}

BitVec
TermDag::countLeadingZeros(const BitVec &x)
{
    unsigned width = x.size();
    // Scan from the MSB: result = index of first set bit from the top.
    BitVec result = CircuitBuilder::constBV(APInt(width, width));
    for (unsigned i = 0; i < width; ++i) {
        // If bit i set, leading zeros = width - 1 - i; later (higher)
        // bits override earlier ones as we iterate upward.
        result = b_->bvMux(x[i],
                           CircuitBuilder::constBV(APInt(width,
                                                         width - 1 - i)),
                           result);
    }
    return result;
}

BitVec
TermDag::countTrailingZeros(const BitVec &x)
{
    unsigned width = x.size();
    BitVec result = CircuitBuilder::constBV(APInt(width, width));
    for (int i = static_cast<int>(width) - 1; i >= 0; --i) {
        result = b_->bvMux(x[i],
                           CircuitBuilder::constBV(APInt(width, i)),
                           result);
    }
    return result;
}

/**
 * The circuit of one node, from its operands' circuits (blasted first,
 * in operand order). Chains and min/max sets fold their leaves in
 * circuit-literal order; mul, overflow and the saturating adds build
 * from the operands of the instruction that created the node.
 */
BitVec
TermDag::build(TermId t)
{
    // Copies: blasting an operand may grow nodes_ and refs_.
    const Node n = nodes_[t];
    const Refs refs(refs_.begin() + n.first,
                    refs_.begin() + n.first + n.count);
    std::vector<BitVec> in;
    for (const Ref &r : refs)
        in.push_back(blast(r.id));
    CircuitBuilder &b = *b_;
    const unsigned w = n.width;

    switch (n.op) {
      case Op::Const:
        return CircuitBuilder::constBV(APInt(w, n.payload));
      case Op::Arg:
        return args_[n.payload];
      case Op::Add: case Op::Xor: {
        std::vector<std::pair<BitVec, bool>> leaves;
        for (size_t i = 0; i < refs.size(); ++i)
            leaves.emplace_back(in[i], refs[i].neg);
        std::sort(leaves.begin(), leaves.end());
        BitVec acc = leaves[0].second ? b.bvNeg(leaves[0].first)
                                      : leaves[0].first;
        for (size_t i = 1; i < leaves.size(); ++i)
            acc = n.op == Op::Xor      ? b.bvXor(acc, leaves[i].first)
                  : leaves[i].second ? b.bvSub(acc, leaves[i].first)
                                     : b.bvAdd(acc, leaves[i].first);
        return acc;
      }
      case Op::Mul: {
        // The shift-add array is asymmetric in its operands; build it
        // in canonical operand order so commuted products share it.
        BitVec p = blast(n.aux), q = blast(n.aux2);
        return laneOrderedBefore(q, p) ? b.bvMul(q, p) : b.bvMul(p, q);
      }
      case Op::UMin: case Op::UMax: case Op::SMin: case Op::SMax: {
        std::vector<std::pair<BitVec, TermId>> kept;
        for (size_t i = 0; i < refs.size(); ++i)
            kept.emplace_back(in[i], refs[i].id);
        std::sort(kept.begin(), kept.end());
        // Fold left to right; a prefix of the set is a node too, so
        // its comparator can be shared.
        TermId acc = kept[0].second;
        BitVec bits = kept[0].first;
        for (size_t i = 1; i < kept.size(); ++i) {
            bits = minMax2(n.op, acc, kept[i].second);
            if (i + 1 == kept.size())
                break;
            Ref prefix[] = {Ref{acc}, Ref{kept[i].second}};
            std::sort(std::begin(prefix), std::end(prefix));
            acc = intern(n.op, w, prefix);
            bits_.resize(nodes_.size());
            if (bits_[acc].empty())
                bits_[acc] = bits;
        }
        return bits;
      }
      case Op::ULt:
        return BitVec{b.bvULt(in[0], in[1])};
      case Op::SLt: {
        // x <s y is the sign of x - y unless the subtraction overflows.
        const BitVec &x = in[0], &y = in[1];
        BitVec d = blast(n.aux);
        CLit overflow = b.andGate(b.xorGate(x.back(), y.back()),
                                  b.xorGate(d.back(), x.back()));
        return BitVec{b.xorGate(d.back(), overflow)};
      }
      case Op::USubSat:
        return b.bvMux(blast(n.aux)[0],
                       CircuitBuilder::constBV(APInt::zero(w)),
                       b.bvSub(in[0], in[1]));
      case Op::UAddSat: {
        const BitVec *p = &in[0], *q = &in[1];
        if (laneOrderedBefore(*q, *p))
            std::swap(p, q);
        return b.bvMux(b.addOverflowsU(*p, *q),
                       CircuitBuilder::constBV(APInt::allOnes(w)),
                       b.bvAdd(*p, *q));
      }
      case Op::Abs:
        return b.bvMux(in[0].back(), blast(n.aux), in[0]);
      case Op::Div: {
        BitVec q, r;
        b.bvDivRem(n.flags & kSigned, in[0], in[1], in[2][0], &q, &r);
        return n.flags & kRemainder ? r : q;
      }
      case Op::And:
        return b.bvAnd(in[0], in[1]);
      case Op::Or:
        return b.bvOr(in[0], in[1]);
      case Op::Not:
        return BitVec{-in[0][0]};
      case Op::Eq:
        return BitVec{b.bvEq(in[0], in[1])};
      case Op::NonZero:
        return BitVec{b.bvNonZero(in[0])};
      case Op::SignBit:
        return BitVec{in[0].back()};
      case Op::Select:
        return b.bvMux(in[0][0], in[1], in[2]);
      case Op::Shl:
        return b.bvShl(in[0], in[1]);
      case Op::LShr:
        return b.bvLShr(in[0], in[1]);
      case Op::AShr:
        return b.bvAShr(in[0], in[1]);
      case Op::Trunc:
        return CircuitBuilder::bvTrunc(in[0], w);
      case Op::ZExt:
        return CircuitBuilder::bvZext(in[0], w);
      case Op::SExt:
        return CircuitBuilder::bvSext(in[0], w);
      case Op::CtPop:
        return popCount(in[0]);
      case Op::CtLz:
        return countLeadingZeros(in[0]);
      case Op::CtTz:
        return countTrailingZeros(in[0]);
      case Op::SSubSat: {
        const BitVec &x = in[0], &y = in[1];
        CLit ovf = b.subOverflowsS(x, y);
        BitVec sat = b.bvMux(
            b.bvSLe(y, x), CircuitBuilder::constBV(APInt::signedMax(w)),
            CircuitBuilder::constBV(APInt::signedMin(w)));
        return b.bvMux(ovf, sat, b.bvSub(x, y));
      }
      case Op::SAddSat: {
        const BitVec &x = in[0], &y = in[1];
        CLit ovf = b.addOverflowsS(x, y);
        BitVec sat = b.bvMux(
            x.back(), CircuitBuilder::constBV(APInt::signedMin(w)),
            CircuitBuilder::constBV(APInt::signedMax(w)));
        return b.bvMux(ovf, sat, b.bvAdd(x, y));
      }
      case Op::Overflow: {
        const bool u = n.flags == kNuw;
        const Op op = static_cast<Op>(n.payload & 0xff);
        if (op == Op::Trunc) {
            // Truncation to dst bits loses information when a high bit
            // is set (nuw) or differs from the new sign bit (nsw).
            const unsigned dst = static_cast<unsigned>(n.payload >> 8);
            const BitVec &a = in[0];
            if (u)
                return BitVec{b.orMany(
                    std::vector<CLit>(a.begin() + dst, a.end()))};
            std::vector<CLit> mismatch;
            for (size_t i = dst; i < a.size(); ++i)
                mismatch.push_back(b.xorGate(a[i], a[dst - 1]));
            return BitVec{b.orMany(mismatch)};
        }
        BitVec x = blast(n.aux), y = blast(n.aux2);
        if (op == Op::Add)
            return BitVec{u ? b.addOverflowsU(x, y) : b.addOverflowsS(x, y)};
        if (op == Op::Sub)
            return BitVec{u ? b.subOverflowsU(x, y) : b.subOverflowsS(x, y)};
        // Mul: in the same canonical order as the product.
        if (laneOrderedBefore(y, x))
            std::swap(x, y);
        return BitVec{u ? b.mulOverflowsU(x, y) : b.mulOverflowsS(x, y)};
      }
    }
    assert(false);
    return {};
}

// ---------------------------------------------------------------------
// The encoder: IR to terms
// ---------------------------------------------------------------------

/** One encoded SSA lane as terms: value, and its poison predicate. */
struct TermLane
{
    TermId value;
    TermId poison;
};
using TermValue = std::vector<TermLane>;

/** A function as terms. */
struct TermFunction
{
    TermValue ret;
    TermId ub;
};

/** Per-function encoding pass into a query's shared term DAG. */
class Encoder
{
  public:
    explicit Encoder(TermDag &terms) : t_(terms) {}

    TermFunction run(const ir::Function &fn,
                     const std::vector<TermValue> &args);

  private:
    void computeDemand(const ir::Function &fn);
    TermValue valueOf(const Value *v);
    void encodeInstruction(const Instruction *inst);

    TermLane intBinaryLane(const Instruction *inst, const TermLane &a,
                           const TermLane &b);
    TermLane icmpLane(const Instruction *inst, const TermLane &a,
                      const TermLane &b);
    TermLane castLane(const Instruction *inst, const TermLane &a);
    TermLane intrinsicLane(const Instruction *inst,
                           const std::vector<TermLane> &args);

    TermId
    constant(const APInt &value)
    {
        return t_.constant(value);
    }

    void
    addUB(TermId condition)
    {
        ub_ = t_.orOf(ub_, condition);
    }

    TermDag &t_;
    std::unordered_map<const Value *, TermValue> env_;
    /** Low bits of each instruction's value that some use reads. */
    std::unordered_map<const Instruction *, unsigned> demand_;
    TermId ub_ = kNoTerm;
};

/** True for add, sub, mul, and, or and xor without flags: the low d
 *  result bits depend on the low d operand bits alone. */
bool
lowBitsOnly(const Instruction *inst)
{
    switch (inst->op()) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::And: case Opcode::Or: case Opcode::Xor:
        return inst->flags() == ir::InstFlags{};
      default:
        return false;
    }
}

/** Bits up to the highest set bit of any lane of constant @p v, or
 *  nullopt if @p v is not an integer constant. */
std::optional<unsigned>
maskBits(const Value *v)
{
    auto bits = [](const Value *c) {
        const APInt &value = static_cast<const ir::ConstantInt *>(c)->value();
        return value.width() - value.countLeadingZeros();
    };
    if (v->kind() == Value::Kind::ConstInt)
        return bits(v);
    if (v->kind() != Value::Kind::ConstVector)
        return std::nullopt;
    unsigned most = 0;
    for (const Value *e : static_cast<const ir::ConstantVector *>(v)
                              ->elements()) {
        if (e->kind() != Value::Kind::ConstInt)
            return std::nullopt;
        most = std::max(most, bits(e));
    }
    return most;
}

/**
 * Demanded width, one backward pass: an instruction's demand is the
 * widest its uses read. add, sub, mul, and, or and xor without flags
 * read only their own demand of their operands (low result bits depend
 * on low operand bits alone), and of that, `and` with a constant reads
 * no operand bit above the mask's highest set bit; urem by 2^k reads k
 * bits of its dividend, as the mask 2^k - 1 does. trunc without flags
 * and select arms pass their demand through. Everything else — ret,
 * icmp, shifts, division, casts, intrinsics, select conditions and any
 * flagged operation (whose poison reads every bit) — reads its
 * operands in full.
 */
void
Encoder::computeDemand(const ir::Function &fn)
{
    auto need = [&](const Value *v, unsigned bits) {
        if (v->kind() != Value::Kind::Instruction)
            return;
        unsigned &d = demand_[static_cast<const Instruction *>(v)];
        d = std::max(d, bits);
    };
    auto full = [](const Value *v) {
        return v->type()->scalarType()->intWidth();
    };
    const auto &insts = fn.entry()->instructions();
    for (auto it = insts.rbegin(); it != insts.rend(); ++it) {
        const Instruction *inst = it->get();
        const unsigned d = demand_[inst];
        if (lowBitsOnly(inst)) {
            for (unsigned i = 0; i < 2; ++i) {
                std::optional<unsigned> mask =
                    inst->op() == Opcode::And ? maskBits(inst->operand(1 - i))
                                              : std::nullopt;
                need(inst->operand(i), mask ? std::min(d, *mask) : d);
            }
            continue;
        }
        switch (inst->op()) {
          case Opcode::Trunc:
            if (inst->flags() != ir::InstFlags{})
                break;
            need(inst->operand(0), d);
            continue;
          case Opcode::URem: {
            // x urem 2^k is x's low k bits: a mask.
            const Value *divisor = inst->operand(1);
            if (divisor->kind() != Value::Kind::ConstInt)
                break;
            const APInt &c =
                static_cast<const ir::ConstantInt *>(divisor)->value();
            if (!c.isPowerOf2())
                break;
            need(inst->operand(0), std::min(d, c.countTrailingZeros()));
            continue;
          }
          case Opcode::Select:
            need(inst->operand(0), 1);
            need(inst->operand(1), d);
            need(inst->operand(2), d);
            continue;
          default:
            break;
        }
        for (const Value *operand : inst->operands())
            if (operand->type()->isIntOrIntVector())
                need(operand, full(operand));
    }
}

TermValue
Encoder::valueOf(const Value *v)
{
    const TermId no_poison = constant(APInt(1, 0));
    switch (v->kind()) {
      case Value::Kind::Argument:
      case Value::Kind::Instruction: {
        auto it = env_.find(v);
        assert(it != env_.end());
        return it->second;
      }
      case Value::Kind::ConstInt: {
        const auto *ci = static_cast<const ir::ConstantInt *>(v);
        return {TermLane{constant(ci->value()), no_poison}};
      }
      case Value::Kind::Poison: {
        TermValue out;
        unsigned lanes = laneCount(v->type());
        unsigned width = v->type()->scalarType()->intWidth();
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(TermLane{constant(APInt::zero(width)),
                                   constant(APInt(1, 1))});
        return out;
      }
      case Value::Kind::ConstVector: {
        const auto *cv = static_cast<const ir::ConstantVector *>(v);
        TermValue out;
        for (const Value *e : cv->elements())
            out.push_back(valueOf(e)[0]);
        return out;
      }
      case Value::Kind::ConstFP:
        assert(false && "FP constant in encodable fragment");
        return {};
    }
    assert(false);
    return {};
}

TermLane
Encoder::intBinaryLane(const Instruction *inst, const TermLane &a,
                       const TermLane &b)
{
    const ir::InstFlags &flags = inst->flags();
    const TermId x = a.value;
    const TermId y = b.value;
    const unsigned width = t_.width(x);
    TermId poison = t_.orOf(a.poison, b.poison);
    TermId bits = kNoTerm;

    switch (inst->op()) {
      case Opcode::Add:
        bits = t_.chain(Op::Add, x, y);
        if (flags.nuw)
            poison = t_.orOf(poison, t_.overflow(Op::Add, kNuw, x, y));
        if (flags.nsw)
            poison = t_.orOf(poison, t_.overflow(Op::Add, kNsw, x, y));
        break;
      case Opcode::Sub:
        bits = t_.chain(Op::Add, x, y, true);
        if (flags.nuw)
            poison = t_.orOf(poison, t_.overflow(Op::Sub, kNuw, x, y));
        if (flags.nsw)
            poison = t_.orOf(poison, t_.overflow(Op::Sub, kNsw, x, y));
        break;
      case Opcode::Mul:
        bits = t_.mul(x, y);
        // Overflow poison from the instruction's own operands, never
        // the product's normalized factors.
        if (flags.nuw)
            poison = t_.orOf(poison, t_.overflow(Op::Mul, kNuw, x, y));
        if (flags.nsw)
            poison = t_.orOf(poison, t_.overflow(Op::Mul, kNsw, x, y));
        break;
      case Opcode::UDiv: case Opcode::URem: {
        // Divisor poison or zero is immediate UB.
        addUB(t_.orOf(b.poison, t_.notOf(t_.nonZero(y))));
        const TermId not_poison = t_.notOf(b.poison);
        const TermId guard = t_.andOf(not_poison, t_.nonZero(y));
        bits = t_.divRem(false, inst->op() == Opcode::URem, x, y, guard);
        if (flags.exact && inst->op() == Opcode::UDiv)
            poison = t_.orOf(poison,
                             t_.nonZero(t_.divRem(false, true, x, y, guard)));
        break;
      }
      case Opcode::SDiv: case Opcode::SRem: {
        addUB(t_.orOf(b.poison, t_.notOf(t_.nonZero(y))));
        // INT_MIN / -1 overflow is UB (when the dividend is defined).
        const TermId x_is_min = t_.eq(x, constant(APInt::signedMin(width)));
        const TermId y_is_m1 = t_.eq(y, constant(APInt::allOnes(width)));
        const TermId defined = t_.notOf(a.poison);
        addUB(t_.andOf(t_.andOf(defined, x_is_min), y_is_m1));
        const TermId not_poison = t_.notOf(b.poison);
        const TermId divisor = t_.nonZero(y);
        const TermId no_overflow = t_.notOf(t_.andOf(x_is_min, y_is_m1));
        const TermId guard =
            t_.andOf(t_.andOf(not_poison, divisor), no_overflow);
        bits = t_.divRem(true, inst->op() == Opcode::SRem, x, y, guard);
        if (flags.exact && inst->op() == Opcode::SDiv)
            poison = t_.orOf(poison,
                             t_.nonZero(t_.divRem(true, true, x, y, guard)));
        break;
      }
      case Opcode::Shl: {
        // Shift amount >= width is poison.
        const TermId size = constant(APInt(width, width));
        poison = t_.orOf(poison, t_.notOf(t_.compare(Op::ULt, y, size)));
        // shl x, 1 is x + x mod 2^w: route it through the add chain so
        // `v + y + y` and `v + (y << 1)` meet.
        if (y == constant(APInt(width, 1)))
            bits = t_.chain(Op::Add, x, x);
        else
            bits = t_.opaque(Op::Shl, {x, y});
        // A set bit shifted out (nuw) or a sign change (nsw): the
        // round trip does not give x back.
        if (flags.nuw)
            poison = t_.orOf(poison, t_.notOf(t_.eq(
                                         t_.opaque(Op::LShr, {bits, y}), x)));
        if (flags.nsw)
            poison = t_.orOf(poison, t_.notOf(t_.eq(
                                         t_.opaque(Op::AShr, {bits, y}), x)));
        break;
      }
      case Opcode::LShr: case Opcode::AShr: {
        const TermId size = constant(APInt(width, width));
        poison = t_.orOf(poison, t_.notOf(t_.compare(Op::ULt, y, size)));
        bits = t_.opaque(inst->op() == Opcode::LShr ? Op::LShr : Op::AShr,
                         {x, y});
        if (flags.exact)
            poison = t_.orOf(poison, t_.notOf(t_.eq(
                                         t_.opaque(Op::Shl, {bits, y}), x)));
        break;
      }
      case Opcode::And:
        bits = t_.andOf(x, y);
        break;
      case Opcode::Or:
        bits = t_.orOf(x, y);
        if (flags.disjoint)
            poison = t_.orOf(poison, t_.nonZero(t_.andOf(x, y)));
        break;
      case Opcode::Xor:
        bits = t_.chain(Op::Xor, x, y);
        break;
      default:
        assert(false);
    }
    return TermLane{bits, poison};
}

TermLane
Encoder::icmpLane(const Instruction *inst, const TermLane &a,
                  const TermLane &b)
{
    TermId r = kNoTerm;
    const TermId x = a.value;
    const TermId y = b.value;
    switch (inst->icmpPred()) {
      case ir::ICmpPred::EQ: r = t_.eq(x, y); break;
      case ir::ICmpPred::NE: r = t_.notOf(t_.eq(x, y)); break;
      // Canonical comparators: everything is an ult/slt node or its
      // negation.
      case ir::ICmpPred::UGT: r = t_.compare(Op::ULt, y, x); break;
      case ir::ICmpPred::UGE:
        r = t_.notOf(t_.compare(Op::ULt, x, y));
        break;
      case ir::ICmpPred::ULT: r = t_.compare(Op::ULt, x, y); break;
      case ir::ICmpPred::ULE:
        r = t_.notOf(t_.compare(Op::ULt, y, x));
        break;
      case ir::ICmpPred::SGT: r = t_.compare(Op::SLt, y, x); break;
      case ir::ICmpPred::SGE:
        r = t_.notOf(t_.compare(Op::SLt, x, y));
        break;
      case ir::ICmpPred::SLT: r = t_.compare(Op::SLt, x, y); break;
      case ir::ICmpPred::SLE:
        r = t_.notOf(t_.compare(Op::SLt, y, x));
        break;
    }
    return TermLane{r, t_.orOf(a.poison, b.poison)};
}

TermLane
Encoder::castLane(const Instruction *inst, const TermLane &a)
{
    const unsigned dst = inst->type()->scalarType()->intWidth();
    const ir::InstFlags &flags = inst->flags();
    TermId poison = a.poison;
    TermId bits = kNoTerm;
    switch (inst->op()) {
      case Opcode::Trunc:
        bits = t_.trunc(a.value, dst);
        if (flags.nuw)
            poison = t_.orOf(poison, t_.truncOverflow(kNuw, a.value, dst));
        if (flags.nsw)
            poison = t_.orOf(poison, t_.truncOverflow(kNsw, a.value, dst));
        break;
      case Opcode::ZExt:
        bits = t_.zext(a.value, dst);
        if (flags.nneg)
            poison = t_.orOf(poison, t_.signBit(a.value));
        break;
      case Opcode::SExt:
        bits = t_.sext(a.value, dst);
        break;
      default:
        assert(false);
    }
    return TermLane{bits, poison};
}

TermLane
Encoder::intrinsicLane(const Instruction *inst,
                       const std::vector<TermLane> &args)
{
    const TermId x = args[0].value;
    const unsigned width = t_.width(x);
    TermId poison = args[0].poison;
    TermId bits = kNoTerm;
    // The immarg flag of abs, ctlz and cttz.
    auto flagSet = [&] { return !t_.isFalse(args[1].value); };
    switch (inst->intrinsic()) {
      case Intrinsic::UMin: case Intrinsic::UMax:
      case Intrinsic::SMin: case Intrinsic::SMax: {
        poison = t_.orOf(poison, args[1].poison);
        const Intrinsic i = inst->intrinsic();
        const Op op = i == Intrinsic::UMin   ? Op::UMin
                      : i == Intrinsic::UMax ? Op::UMax
                      : i == Intrinsic::SMin ? Op::SMin
                                             : Op::SMax;
        bits = t_.minMax(op, x, args[1].value);
        break;
      }
      case Intrinsic::Abs: {
        const TermId is_min = t_.eq(x, constant(APInt::signedMin(width)));
        if (flagSet())
            poison = t_.orOf(poison, is_min);
        bits = t_.abs(x);
        break;
      }
      case Intrinsic::CtPop:
        bits = t_.opaque(Op::CtPop, {x});
        break;
      case Intrinsic::CtLz: case Intrinsic::CtTz:
        if (flagSet())
            poison = t_.orOf(poison, t_.notOf(t_.nonZero(x)));
        bits = t_.opaque(inst->intrinsic() == Intrinsic::CtLz ? Op::CtLz
                                                              : Op::CtTz,
                         {x});
        break;
      case Intrinsic::USubSat:
        poison = t_.orOf(poison, args[1].poison);
        bits = t_.usubSat(x, args[1].value);
        break;
      case Intrinsic::UAddSat:
        poison = t_.orOf(poison, args[1].poison);
        bits = t_.uaddSat(x, args[1].value);
        break;
      case Intrinsic::SSubSat:
        poison = t_.orOf(poison, args[1].poison);
        bits = t_.opaque(Op::SSubSat, {x, args[1].value});
        break;
      case Intrinsic::SAddSat:
        poison = t_.orOf(poison, args[1].poison);
        bits = t_.opaque(Op::SAddSat, {x, args[1].value});
        break;
      default:
        assert(false && "unencodable intrinsic");
    }
    return TermLane{bits, poison};
}

void
Encoder::encodeInstruction(const Instruction *inst)
{
    const unsigned lanes = laneCount(inst->type());
    TermValue out;

    if (inst->isIntBinaryOp()) {
        TermValue a = valueOf(inst->operand(0));
        TermValue b = valueOf(inst->operand(1));
        // Below full demand, build the low bits alone; the rest are
        // never read.
        const unsigned width = inst->type()->scalarType()->intWidth();
        const unsigned demand =
            lowBitsOnly(inst) ? std::max(demand_[inst], 1u) : width;
        for (unsigned i = 0; i < lanes; ++i) {
            if (demand < width) {
                a[i].value = t_.trunc(a[i].value, demand);
                b[i].value = t_.trunc(b[i].value, demand);
            }
            TermLane lane = intBinaryLane(inst, a[i], b[i]);
            lane.value = t_.zext(lane.value, width);
            out.push_back(lane);
        }
        env_[inst] = out;
        return;
    }
    switch (inst->op()) {
      case Opcode::ICmp: {
        TermValue a = valueOf(inst->operand(0));
        TermValue b = valueOf(inst->operand(1));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(icmpLane(inst, a[i], b[i]));
        break;
      }
      case Opcode::Select: {
        TermValue cond = valueOf(inst->operand(0));
        TermValue tval = valueOf(inst->operand(1));
        TermValue fval = valueOf(inst->operand(2));
        bool scalar_cond = inst->operand(0)->type()->isBool();
        for (unsigned i = 0; i < lanes; ++i) {
            const TermLane &c = scalar_cond ? cond[0] : cond[i];
            TermLane lane;
            lane.value = t_.select(c.value, tval[i].value, fval[i].value);
            TermId chosen_poison =
                t_.mux(c.value, tval[i].poison, fval[i].poison);
            lane.poison = t_.orOf(c.poison, chosen_poison);
            out.push_back(lane);
        }
        break;
      }
      case Opcode::Trunc: case Opcode::ZExt: case Opcode::SExt: {
        TermValue a = valueOf(inst->operand(0));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(castLane(inst, a[i]));
        break;
      }
      case Opcode::Freeze: {
        TermValue a = valueOf(inst->operand(0));
        const unsigned width = inst->type()->scalarType()->intWidth();
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(TermLane{
                t_.mux(a[i].poison, constant(APInt::zero(width)),
                       a[i].value),
                constant(APInt(1, 0))});
        break;
      }
      case Opcode::Call: {
        std::vector<TermValue> args;
        for (const Value *operand : inst->operands())
            args.push_back(valueOf(operand));
        for (unsigned i = 0; i < lanes; ++i) {
            std::vector<TermLane> lane_args;
            for (const TermValue &arg : args)
                lane_args.push_back(arg.size() == 1 ? arg[0] : arg[i]);
            out.push_back(intrinsicLane(inst, lane_args));
        }
        break;
      }
      default:
        assert(false && "unencodable instruction reached encoder");
    }
    env_[inst] = out;
}

TermFunction
Encoder::run(const ir::Function &fn, const std::vector<TermValue> &args)
{
    computeDemand(fn);
    ub_ = constant(APInt(1, 0));
    for (unsigned i = 0; i < fn.numArgs(); ++i)
        env_[fn.arg(i)] = args[i];
    for (const auto &inst : fn.entry()->instructions()) {
        if (inst->op() == Opcode::Ret)
            return TermFunction{valueOf(inst->operand(0)), ub_};
        encodeInstruction(inst.get());
    }
    assert(false && "canEncode checked for a ret");
    return {};
}

/** One argument leaf per lane of each of @p fn's arguments, numbered
 *  in order. */
std::vector<TermValue>
argumentTerms(TermDag &terms, const ir::Function &fn)
{
    std::vector<TermValue> args;
    const TermId no_poison = terms.constant(APInt(1, 0));
    unsigned slot = 0;
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const Type *type = fn.arg(i)->type();
        const unsigned width = type->scalarType()->intWidth();
        TermValue value;
        for (unsigned lane = 0; lane < laneCount(type); ++lane)
            value.push_back(TermLane{terms.arg(slot++, width), no_poison});
        args.push_back(std::move(value));
    }
    return args;
}

/** Fresh non-poison circuit inputs for the argument leaves @p args. */
std::vector<ValueEnc>
freshArguments(CircuitBuilder &builder, const TermDag &terms,
               const std::vector<TermValue> &args)
{
    std::vector<ValueEnc> out;
    for (const TermValue &arg : args) {
        ValueEnc enc;
        for (const TermLane &lane : arg)
            enc.push_back(LaneEnc{builder.freshBV(terms.width(lane.value)),
                                  CircuitBuilder::kFalse});
        out.push_back(std::move(enc));
    }
    return out;
}

/** Blast every root of @p terms with @p args as the argument leaves. */
void
blastOver(TermDag &terms, CircuitBuilder &builder,
          const std::vector<ValueEnc> &args)
{
    std::vector<BitVec> slots;
    for (const ValueEnc &arg : args)
        for (const LaneEnc &lane : arg)
            slots.push_back(lane.bits);
    terms.blastRoots(builder, std::move(slots));
}

TermFunction
encodeTerms(TermDag &terms, const ir::Function &fn,
            const std::vector<TermValue> &args)
{
    // Chaos-test injection: the bit-blaster blowing up mid-encoding
    // (resource exhaustion in real deployments). The per-case
    // containment in core/pipeline.cc must convert this into a
    // case-level failure, never a lost module run.
    if (LPO_FAILPOINT("bitblast.throw"))
        throw FailPointError("injected bit-blaster failure "
                             "(failpoint bitblast.throw)");
    Encoder encoder(terms);
    return encoder.run(fn, args);
}

/** The circuit of @p value (after TermDag::blastRoots). */
ValueEnc
blastValue(TermDag &terms, const TermValue &value)
{
    ValueEnc out;
    for (const TermLane &lane : value)
        out.push_back(LaneEnc{terms.bits(lane.value),
                              terms.bits(lane.poison)[0]});
    return out;
}

} // namespace

struct TermWorkspace::Impl
{
    TermDag dag;
};

TermWorkspace::TermWorkspace() : impl_(std::make_unique<Impl>()) {}
TermWorkspace::~TermWorkspace() = default;

bool
canEncode(const ir::Function &fn)
{
    if (fn.blocks().size() != 1)
        return false;
    if (!typeEncodable(fn.returnType()))
        return false;
    for (const auto &arg : fn.args())
        if (!typeEncodable(arg->type()))
            return false;
    for (const auto &inst : fn.entry()->instructions()) {
        switch (inst->op()) {
          case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
          case Opcode::FDiv: case Opcode::FCmp:
          case Opcode::Load: case Opcode::Store: case Opcode::Gep:
          case Opcode::Phi: case Opcode::Br:
            return false;
          case Opcode::Call:
            if (inst->intrinsic() == Intrinsic::FAbs)
                return false;
            // abs/ctlz/cttz flags must be constant immargs.
            if ((inst->intrinsic() == Intrinsic::Abs ||
                 inst->intrinsic() == Intrinsic::CtLz ||
                 inst->intrinsic() == Intrinsic::CtTz) &&
                inst->operand(1)->kind() != Value::Kind::ConstInt)
                return false;
            break;
          case Opcode::Ret:
            if (inst->numOperands() == 0)
                return false;
            break;
          default:
            break;
        }
        if (!inst->type()->isVoid() && !inst->isTerminator() &&
            !typeEncodable(inst->type()))
            return false;
    }
    return fn.entry()->terminator() &&
           fn.entry()->terminator()->op() == Opcode::Ret;
}

std::optional<EncodedFunction>
encodeFunction(smt::CircuitBuilder &builder, const ir::Function &fn,
               const std::vector<ValueEnc> *shared_args)
{
    if (!canEncode(fn))
        return std::nullopt;
    TermDag terms;
    std::vector<TermValue> arg_terms = argumentTerms(terms, fn);
    TermFunction encoded = encodeTerms(terms, fn, arg_terms);

    EncodedFunction result;
    result.args = shared_args ? *shared_args
                              : freshArguments(builder, terms, arg_terms);
    blastOver(terms, builder, result.args);
    result.ret = blastValue(terms, encoded.ret);
    result.ub = terms.bits(encoded.ub)[0];
    return result;
}

QueryEncoding
encodeRefinementQuery(smt::CircuitBuilder &builder, const ir::Function &src,
                      const ir::Function &tgt,
                      std::vector<ValueEnc> *shared_args_out)
{
    if (!canEncode(src) || !canEncode(tgt))
        return QueryEncoding::Unencodable;
    TermWorkspace terms;
    return encodeEncodableQuery(terms, builder, src, tgt, shared_args_out);
}

QueryEncoding
encodeEncodableQuery(TermWorkspace &workspace, smt::CircuitBuilder &builder,
                     const ir::Function &src, const ir::Function &tgt,
                     std::vector<ValueEnc> *shared_args_out)
{
    assert(canEncode(src) && canEncode(tgt) &&
           "the caller checked canEncode");

    // One DAG for both sides over the same argument leaves, so they
    // meet in the same nodes.
    TermDag &terms = workspace.impl().dag;
    terms.reset();
    std::vector<TermValue> args = argumentTerms(terms, src);
    TermFunction s = encodeTerms(terms, src, args);
    TermFunction t = encodeTerms(terms, tgt, args);

    // The refinement-violation predicate:
    //   !src.ub && (tgt.ub || exists lane:
    //               !src.poison[l] && (tgt.poison[l] || values differ))
    std::vector<TermId> lane_violations;
    for (size_t lane = 0; lane < s.ret.size(); ++lane) {
        const TermLane &sl = s.ret[lane];
        const TermLane &tl = t.ret[lane];
        TermId mismatch =
            terms.orOf(tl.poison, terms.notOf(terms.eq(sl.value, tl.value)));
        lane_violations.push_back(
            terms.andOf(terms.notOf(sl.poison), mismatch));
    }
    TermId lanes = terms.constant(APInt(1, 0));
    for (TermId v : lane_violations)
        lanes = terms.orOf(lanes, v);
    TermId violation = terms.andOf(terms.notOf(s.ub), terms.orOf(t.ub, lanes));
    if (terms.isFalse(violation)) {
        // Decided: the sides met. The empty clause answers Unsat
        // without a circuit.
        builder.require(CircuitBuilder::kFalse);
        return QueryEncoding::DecidedByTerms;
    }

    std::vector<ValueEnc> arg_bits = freshArguments(builder, terms, args);
    blastOver(terms, builder, arg_bits);
    CLit miter = terms.bits(violation)[0];
    builder.require(miter);
    // A miter that folds to true constrains nothing, so require()
    // emitted nothing; emit the circuit anyway, since a counterexample
    // is read from the argument variables.
    if (miter == CircuitBuilder::kTrue)
        builder.emit();
    if (shared_args_out)
        *shared_args_out = std::move(arg_bits);
    return QueryEncoding::Blasted;
}

} // namespace lpo::verify
