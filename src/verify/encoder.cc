#include "verify/encoder.h"

#include <algorithm>
#include <cassert>
#include <map>
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
 * `mul(a, b)` hits the identical unique-table nodes as the source —
 * turning what would be a comparator/multiplier commutativity proof
 * into a structurally shared cone. Ordering is by the operand bit
 * literals (lexicographic), so it is a pure function of the circuit
 * and deterministic across runs.
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

/** The value of a constant word. */
APInt
constValue(const BitVec &v)
{
    uint64_t value = 0;
    for (size_t i = 0; i < v.size(); ++i)
        if (v[i] == CircuitBuilder::kTrue)
            value |= uint64_t(1) << i;
    return APInt(v.size(), value);
}

/**
 * Hash-consed word-level terms between the IR walk and CircuitBuilder.
 *
 * One table serves a whole refinement query, source and target alike,
 * so both sides of the miter meet in the same nodes. A constructor
 * normalizes its term by bit-vector identities, then looks it up; only
 * a miss bit-blasts. The bits a term produced are its identity: @c
 * defs_ maps them back to the normalized definition, so constructors
 * see through their operands. Leaves (arguments, constants, and every
 * operation without rules here) have no definition. The rules:
 *
 * - add/sub chains flatten to a signed multiset of leaves (shl x, 1 is
 *   x + x) with +x/-x pairs and zeros dropped, and xor chains to a
 *   multiset with x ^ x pairs and zeros dropped; both fold their sorted
 *   leaves left to right, so any reassociation or cancellation of one
 *   chain rebuilds the same gates;
 * - constant factors fold: (x * c1) * c2 = x * (c1 * c2);
 * - min/max flatten to a sorted operand set (associativity,
 *   commutativity, idempotence: umin(umin(a, b), a) = umin(a, b)) and
 *   drop an operand absorbed by the dual (umin(a, umax(a, b)) = a);
 * - comparators are ult/slt nodes: ugt(x, y) = ult(y, x) and
 *   uge(x, y) = !ult(x, y), so a select sees through its condition;
 *   slt(x, y) is the sign of the add chain x - y xor its overflow, so
 *   shared leaves of x and y cancel; min/max compare through the same
 *   nodes, a constant operand second;
 * - select(ult(p, q), p, q) is umin(p, q), and likewise umax and the
 *   signed pair;
 * - usub.sat and uadd.sat are one node each, reached from the
 *   intrinsic, the select forms select(x >u y, x - y, 0) and
 *   select(x + y <u x, -1, x + y), and umax(x, y) - y (or
 *   y - umin(x, y));
 * - abs is one node, reached from llvm.abs (either poison flag: the
 *   bits agree), smax(x, 0 - x) and the sign-test selects
 *   select(x <s 0, 0 - x, x) and select(x >s -1, x, 0 - x), with the
 *   bounds 1 and 0 as well (the arms agree at x = 0).
 *
 * Every rule is an identity on bits alone: it holds for all operand
 * values. Poison and UB never pass through this table — the encoder
 * computes them from each instruction's own operands — so a rule is
 * sound iff its bit identity is (tests/test_word_rules.cc checks each
 * one exhaustively through ExecPlan and proves it at i64).
 */
class TermTable
{
  public:
    enum class Op : uint8_t
    {
        Add, Xor, Mul, UMin, UMax, SMin, SMax, ULt, SLt, USubSat, UAddSat,
        Abs
    };

    explicit TermTable(CircuitBuilder &builder) : b_(builder) {}

    /** The add (@p negate_y: sub) or xor chain of @p x and @p y. */
    BitVec chain(Op op, const BitVec &x, const BitVec &y,
                 bool negate_y = false);
    BitVec mul(const BitVec &x, const BitVec &y);
    /** @p op is one of UMin, UMax, SMin, SMax. */
    BitVec minMax(Op op, const BitVec &x, const BitVec &y);
    /** @p op is ULt or SLt. */
    CLit compare(Op op, const BitVec &x, const BitVec &y);
    BitVec select(CLit sel, const BitVec &t, const BitVec &f);
    BitVec usubSat(const BitVec &x, const BitVec &y);
    BitVec uaddSat(const BitVec &x, const BitVec &y);
    BitVec abs(const BitVec &x);

  private:
    /** One operand of a term; @c neg marks a subtracted add leaf. */
    struct Leaf
    {
        BitVec bits;
        bool neg = false;

        auto operator<=>(const Leaf &) const = default;
    };
    using Leaves = std::vector<Leaf>;

    struct Term
    {
        Op op;
        Leaves args;

        auto operator<=>(const Term &) const = default;
    };

    /** The definition of @p bits with operator @p op, or null. */
    const Term *def(const BitVec &bits, Op op) const;
    /** The operands @p bits contributes to an @p op node: its own
     *  operands when it is one, else itself. */
    Leaves operandsOf(Op op, const BitVec &bits) const;
    /** Sort, cancel inverse pairs (x + -x, x ^ x) and drop zeros. */
    static Leaves normalize(Op op, Leaves leaves);
    /** Normalized leaves of the @p op chain of @p x and @p y. */
    Leaves combine(Op op, const BitVec &x, const BitVec &y,
                   bool negate_y) const;
    BitVec minMax2(Op op, const BitVec &x, const BitVec &y);
    /** True if @p v is 0 - @p x. */
    bool isNegationOf(const BitVec &v, const BitVec &x) const;

    /** Look @p term up; on a miss, bit-blast it with @p build. */
    template <typename Build>
    BitVec
    intern(Term term, Build build)
    {
        auto it = unique_.find(term);
        if (it != unique_.end())
            return it->second;
        BitVec bits = build();
        unique_.emplace(term, bits);
        // First definition wins. Constants stay leaves, and so does a
        // term that folded to one of its own operands (umax(x, 0) = x).
        bool collapsed = std::any_of(
            term.args.begin(), term.args.end(),
            [&](const Leaf &arg) { return arg.bits == bits; });
        if (!isConstBV(bits) && !collapsed)
            defs_.emplace(bits, std::move(term));
        return bits;
    }

    CircuitBuilder &b_;
    std::map<Term, BitVec> unique_;
    std::map<BitVec, Term> defs_;
};

const TermTable::Term *
TermTable::def(const BitVec &bits, Op op) const
{
    auto it = defs_.find(bits);
    return it != defs_.end() && it->second.op == op ? &it->second : nullptr;
}

TermTable::Leaves
TermTable::operandsOf(Op op, const BitVec &bits) const
{
    if (const Term *t = def(bits, op))
        return t->args;
    return {Leaf{bits}};
}

TermTable::Leaves
TermTable::normalize(Op op, Leaves leaves)
{
    std::sort(leaves.begin(), leaves.end());
    // Inverse pairs are adjacent after the sort; zeros contribute no
    // gates to the fold.
    Leaves kept;
    for (size_t i = 0; i < leaves.size();) {
        if (i + 1 < leaves.size() && leaves[i].bits == leaves[i + 1].bits &&
            leaves[i + 1].neg == (op == Op::Add && !leaves[i].neg)) {
            i += 2;
            continue;
        }
        if (!std::all_of(leaves[i].bits.begin(), leaves[i].bits.end(),
                         [](CLit bit) {
                             return bit == CircuitBuilder::kFalse;
                         }))
            kept.push_back(leaves[i]);
        ++i;
    }
    return kept;
}

TermTable::Leaves
TermTable::combine(Op op, const BitVec &x, const BitVec &y,
                   bool negate_y) const
{
    Leaves leaves = operandsOf(op, x);
    for (Leaf leaf : operandsOf(op, y)) {
        leaf.neg = leaf.neg != negate_y;
        leaves.push_back(std::move(leaf));
    }
    return normalize(op, std::move(leaves));
}

BitVec
TermTable::chain(Op op, const BitVec &x, const BitVec &y, bool negate_y)
{
    Leaves kept = combine(op, x, y, negate_y);
    if (kept.empty())
        return CircuitBuilder::constBV(APInt::zero(x.size()));
    if (kept.size() == 1 && !kept[0].neg)
        return kept[0].bits;
    // umax(p, q) - q and q - umin(p, q) are usub.sat(p, q): one leaf is
    // the min/max, and the rest of the chain is exactly -q or +q.
    for (size_t i = 0; op == Op::Add && i < kept.size(); ++i) {
        const Leaf &leaf = kept[i];
        const Term *mm = def(leaf.bits, leaf.neg ? Op::UMin : Op::UMax);
        if (!mm || mm->args.size() != 2)
            continue;
        Leaves rest = kept;
        rest.erase(rest.begin() + i);
        for (int k = 0; k < 2; ++k) {
            const BitVec &p = mm->args[1 - k].bits;
            const BitVec &q = mm->args[k].bits;
            Leaves want = operandsOf(Op::Add, q);
            for (Leaf &w : want)
                w.neg = w.neg == leaf.neg;
            if (normalize(Op::Add, std::move(want)) == rest)
                return leaf.neg ? usubSat(q, p) : usubSat(p, q);
        }
    }
    return intern(Term{op, kept}, [&] {
        BitVec acc = kept[0].neg ? b_.bvNeg(kept[0].bits) : kept[0].bits;
        for (size_t i = 1; i < kept.size(); ++i)
            acc = op == Op::Xor     ? b_.bvXor(acc, kept[i].bits)
                  : kept[i].neg ? b_.bvSub(acc, kept[i].bits)
                                : b_.bvAdd(acc, kept[i].bits);
        return acc;
    });
}

BitVec
TermTable::mul(const BitVec &x, const BitVec &y)
{
    // The shift-add array is asymmetric in its operands; build it in
    // canonical operand order so commuted products share the cone.
    auto product = [&](const BitVec &a, const BitVec &b) {
        return laneOrderedBefore(b, a) ? b_.bvMul(b, a) : b_.bvMul(a, b);
    };
    const BitVec *v = &x, *c = &y;
    if (isConstBV(*v))
        std::swap(v, c);
    if (isConstBV(*v) || !isConstBV(*c))
        return product(x, y);
    if (const Term *t = def(*v, Op::Mul)) {
        APInt folded = constValue(t->args[1].bits).mul(constValue(*c));
        return mul(t->args[0].bits, CircuitBuilder::constBV(folded));
    }
    return intern(Term{Op::Mul, {Leaf{*v}, Leaf{*c}}},
                  [&] { return product(*v, *c); });
}

/** The two-operand min/max circuit, in canonical operand order. */
BitVec
TermTable::minMax2(Op op, const BitVec &x, const BitVec &y)
{
    // A constant goes second: p <u C folds the borrow chain below C's
    // lowest set bit, and p <s 0 is p's sign bit.
    const BitVec *p = &x, *q = &y;
    bool p_const = isConstBV(*p), q_const = isConstBV(*q);
    if (p_const != q_const ? p_const : laneOrderedBefore(*q, *p))
        std::swap(p, q);
    bool is_signed = op == Op::SMin || op == Op::SMax;
    CLit lt = compare(is_signed ? Op::SLt : Op::ULt, *p, *q);
    bool is_min = op == Op::UMin || op == Op::SMin;
    return is_min ? b_.bvMux(lt, *p, *q) : b_.bvMux(lt, *q, *p);
}

BitVec
TermTable::minMax(Op op, const BitVec &x, const BitVec &y)
{
    Leaves kept = operandsOf(op, x);
    Leaves more = operandsOf(op, y);
    kept.insert(kept.end(), more.begin(), more.end());
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    // Absorption: drop an operand that is the dual of operands one of
    // which is still in the set, since that one is on its side of it
    // (umin(a, umax(a, b)) = a). Each drop is justified by an operand
    // present at the time, so the extreme never changes.
    Op dual = op == Op::UMin   ? Op::UMax
              : op == Op::UMax ? Op::UMin
              : op == Op::SMin ? Op::SMax
                               : Op::SMin;
    for (size_t i = 0; i < kept.size();) {
        const Term *d = def(kept[i].bits, dual);
        bool absorbed =
            d && std::any_of(d->args.begin(), d->args.end(),
                             [&](const Leaf &inner) {
                                 return inner != kept[i] &&
                                        std::binary_search(kept.begin(),
                                                           kept.end(),
                                                           inner);
                             });
        if (absorbed)
            kept.erase(kept.begin() + i);
        else
            ++i;
    }
    if (kept.size() == 1)
        return kept[0].bits;
    // smax(x, 0 - x) is abs(x), INT_MIN included (both are INT_MIN).
    for (size_t k = 0; op == Op::SMax && kept.size() == 2 && k < 2; ++k)
        if (isNegationOf(kept[1 - k].bits, kept[k].bits))
            return abs(kept[k].bits);
    return intern(Term{op, kept}, [&] {
        BitVec acc = kept[0].bits;
        for (size_t i = 1; i < kept.size(); ++i)
            acc = minMax2(op, acc, kept[i].bits);
        return acc;
    });
}

CLit
TermTable::compare(Op op, const BitVec &x, const BitVec &y)
{
    return intern(Term{op, {Leaf{x}, Leaf{y}}}, [&] {
        if (op == Op::ULt)
            return BitVec{b_.bvULt(x, y)};
        // x <s y is the sign of x - y unless the subtraction overflows.
        // The difference is an add chain, so it cancels shared leaves:
        // (a + b) <s (a - b) reads the sign of b + b.
        BitVec d = chain(Op::Add, x, y, true);
        CLit overflow = b_.andGate(b_.xorGate(x.back(), y.back()),
                                   b_.xorGate(d.back(), x.back()));
        return BitVec{b_.xorGate(d.back(), overflow)};
    })[0];
}

BitVec
TermTable::select(CLit sel, const BitVec &t, const BitVec &f)
{
    // Normalize the condition to a positive comparator node.
    const BitVec *tv = &t, *fv = &f;
    const Term *cmp = nullptr;
    for (Op op : {Op::ULt, Op::SLt}) {
        if ((cmp = def(BitVec{sel}, op)))
            break;
        if ((cmp = def(BitVec{-sel}, op))) {
            std::swap(tv, fv);
            break;
        }
    }
    if (!cmp)
        return b_.bvMux(sel, t, f);
    const BitVec &p = cmp->args[0].bits;
    const BitVec &q = cmp->args[1].bits;
    // select(p < q, p, q) = min(p, q); select(p < q, q, p) = max(p, q).
    bool is_signed = cmp->op == Op::SLt;
    if (*tv == p && *fv == q)
        return minMax(is_signed ? Op::SMin : Op::UMin, p, q);
    if (*tv == q && *fv == p)
        return minMax(is_signed ? Op::SMax : Op::UMax, p, q);

    const unsigned width = t.size();
    const BitVec zero = CircuitBuilder::constBV(APInt::zero(width));
    if (is_signed) {
        // Sign tests: x <s 0 and x <s 1 pick 0 - x; 0 <s x and -1 <s x
        // pick x.
        const BitVec one = CircuitBuilder::constBV(APInt(width, 1));
        const BitVec ones = CircuitBuilder::constBV(APInt::allOnes(width));
        if ((q == zero || q == one) && *fv == p && isNegationOf(*tv, p))
            return abs(p);
        if ((p == zero || p == ones) && *tv == q && isNegationOf(*fv, q))
            return abs(q);
        return b_.bvMux(sel, t, f);
    }
    auto leavesOf = [&](const BitVec &v) {
        return normalize(Op::Add, operandsOf(Op::Add, v));
    };
    // select(p <u q, 0, p - q) = usub.sat(p, q);
    // select(p <u q, q - p, 0) = usub.sat(q, p).
    if (*tv == zero && leavesOf(*fv) == combine(Op::Add, p, q, true))
        return usubSat(p, q);
    if (*fv == zero && leavesOf(*tv) == combine(Op::Add, q, p, true))
        return usubSat(q, p);
    // select(q + r <u q, -1, q + r) = uadd.sat(q, r): the wrapped sum
    // is below an addend exactly when the addition overflows.
    if (*tv == CircuitBuilder::constBV(APInt::allOnes(width)) && *fv == p) {
        Leaves r = combine(Op::Add, p, q, true);
        if (r.size() == 1 && !r[0].neg)
            return uaddSat(q, r[0].bits);
    }
    return b_.bvMux(sel, t, f);
}

BitVec
TermTable::usubSat(const BitVec &x, const BitVec &y)
{
    return intern(Term{Op::USubSat, {Leaf{x}, Leaf{y}}}, [&] {
        return b_.bvMux(compare(Op::ULt, x, y),
                        CircuitBuilder::constBV(APInt::zero(x.size())),
                        b_.bvSub(x, y));
    });
}

bool
TermTable::isNegationOf(const BitVec &v, const BitVec &x) const
{
    return normalize(Op::Add, operandsOf(Op::Add, v)) ==
           Leaves{Leaf{x, true}};
}

BitVec
TermTable::abs(const BitVec &x)
{
    return intern(Term{Op::Abs, {Leaf{x}}}, [&] {
        BitVec zero = CircuitBuilder::constBV(APInt::zero(x.size()));
        return b_.bvMux(x.back(), chain(Op::Add, zero, x, true), x);
    });
}

BitVec
TermTable::uaddSat(const BitVec &x, const BitVec &y)
{
    const BitVec *p = &x, *q = &y;
    if (laneOrderedBefore(*q, *p))
        std::swap(p, q);
    return intern(Term{Op::UAddSat, {Leaf{*p}, Leaf{*q}}}, [&] {
        return b_.bvMux(b_.addOverflowsU(*p, *q),
                        CircuitBuilder::constBV(APInt::allOnes(x.size())),
                        b_.bvAdd(*p, *q));
    });
}

using Op = TermTable::Op;

/** Per-function encoding pass over a query's shared term table. */
class Encoder
{
  public:
    Encoder(CircuitBuilder &builder, TermTable &terms)
        : b_(builder), t_(terms)
    {
    }

    std::optional<EncodedFunction> run(const ir::Function &fn,
                                       const std::vector<ValueEnc> *shared);

  private:
    void computeDemand(const ir::Function &fn);
    ValueEnc valueOf(const Value *v);
    void encodeInstruction(const Instruction *inst);

    LaneEnc intBinaryLane(const Instruction *inst, const LaneEnc &a,
                          const LaneEnc &b);
    LaneEnc icmpLane(const Instruction *inst, const LaneEnc &a,
                     const LaneEnc &b);
    LaneEnc castLane(const Instruction *inst, const LaneEnc &a);
    LaneEnc intrinsicLane(const Instruction *inst,
                          const std::vector<LaneEnc> &args);

    BitVec countLeadingZeros(const BitVec &x);
    BitVec countTrailingZeros(const BitVec &x);
    BitVec popCount(const BitVec &x);

    void
    addUB(CLit condition)
    {
        ub_ = b_.orGate(ub_, condition);
    }

    CircuitBuilder &b_;
    TermTable &t_;
    std::map<const Value *, ValueEnc> env_;
    /** Low bits of each instruction's value that some use reads. */
    std::map<const Instruction *, unsigned> demand_;
    CLit ub_ = CircuitBuilder::kFalse;
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
 * no operand bit above the mask's highest set bit. trunc without flags
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

ValueEnc
Encoder::valueOf(const Value *v)
{
    switch (v->kind()) {
      case Value::Kind::Argument:
      case Value::Kind::Instruction: {
        auto it = env_.find(v);
        assert(it != env_.end());
        return it->second;
      }
      case Value::Kind::ConstInt: {
        const auto *ci = static_cast<const ir::ConstantInt *>(v);
        return {LaneEnc{CircuitBuilder::constBV(ci->value()),
                        CircuitBuilder::kFalse}};
      }
      case Value::Kind::Poison: {
        ValueEnc out;
        unsigned lanes = laneCount(v->type());
        unsigned width = v->type()->scalarType()->intWidth();
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(
                LaneEnc{CircuitBuilder::constBV(APInt::zero(width)),
                        CircuitBuilder::kTrue});
        return out;
      }
      case Value::Kind::ConstVector: {
        const auto *cv = static_cast<const ir::ConstantVector *>(v);
        ValueEnc out;
        for (const Value *e : cv->elements()) {
            ValueEnc lane = valueOf(e);
            out.push_back(lane[0]);
        }
        return out;
      }
      case Value::Kind::ConstFP:
        assert(false && "FP constant in encodable fragment");
        return {};
    }
    assert(false);
    return {};
}

LaneEnc
Encoder::intBinaryLane(const Instruction *inst, const LaneEnc &a,
                       const LaneEnc &b)
{
    const ir::InstFlags &flags = inst->flags();
    const BitVec &x = a.bits;
    const BitVec &y = b.bits;
    unsigned width = x.size();
    CLit poison = b_.orGate(a.poison, b.poison);
    BitVec bits;

    switch (inst->op()) {
      case Opcode::Add: {
        bits = t_.chain(Op::Add, x, y);
        if (flags.nuw)
            poison = b_.orGate(poison, b_.addOverflowsU(x, y));
        if (flags.nsw)
            poison = b_.orGate(poison, b_.addOverflowsS(x, y));
        break;
      }
      case Opcode::Sub: {
        bits = t_.chain(Op::Add, x, y, true);
        if (flags.nuw)
            poison = b_.orGate(poison, b_.subOverflowsU(x, y));
        if (flags.nsw)
            poison = b_.orGate(poison, b_.subOverflowsS(x, y));
        break;
      }
      case Opcode::Mul: {
        bits = t_.mul(x, y);
        // Overflow poison from the instruction's own operands, in the
        // same canonical order as the product.
        const BitVec *p = &x, *q = &y;
        if (laneOrderedBefore(y, x))
            std::swap(p, q);
        if (flags.nuw)
            poison = b_.orGate(poison, b_.mulOverflowsU(*p, *q));
        if (flags.nsw)
            poison = b_.orGate(poison, b_.mulOverflowsS(*p, *q));
        break;
      }
      case Opcode::UDiv: case Opcode::URem: {
        // Divisor poison or zero is immediate UB.
        addUB(b_.orGate(b.poison, -b_.bvNonZero(y)));
        CLit guard = b_.andGate(-b.poison, b_.bvNonZero(y));
        BitVec q, r;
        b_.bvUDivRem(x, y, guard, &q, &r);
        bits = inst->op() == Opcode::UDiv ? q : r;
        if (flags.exact && inst->op() == Opcode::UDiv)
            poison = b_.orGate(poison, b_.bvNonZero(r));
        break;
      }
      case Opcode::SDiv: case Opcode::SRem: {
        addUB(b_.orGate(b.poison, -b_.bvNonZero(y)));
        // INT_MIN / -1 overflow is UB (when the dividend is defined).
        CLit x_is_min = b_.bvEq(x,
            CircuitBuilder::constBV(APInt::signedMin(width)));
        CLit y_is_m1 = b_.bvEq(y,
            CircuitBuilder::constBV(APInt::allOnes(width)));
        addUB(b_.andMany({-a.poison, x_is_min, y_is_m1}));
        CLit guard = b_.andMany(
            {-b.poison, b_.bvNonZero(y),
             -b_.andGate(x_is_min, y_is_m1)});
        BitVec q, r;
        b_.bvSDivRem(x, y, guard, &q, &r);
        bits = inst->op() == Opcode::SDiv ? q : r;
        if (flags.exact && inst->op() == Opcode::SDiv)
            poison = b_.orGate(poison, b_.bvNonZero(r));
        break;
      }
      case Opcode::Shl: {
        CLit oversize = b_.bvULe(
            CircuitBuilder::constBV(APInt(width, width)), y);
        poison = b_.orGate(poison, oversize);
        // shl x, 1 is x + x mod 2^w: route it through the add chain so
        // `v + y + y` and `v + (y << 1)` share cones.
        if (y == CircuitBuilder::constBV(APInt(width, 1)))
            bits = t_.chain(Op::Add, x, x);
        else
            bits = b_.bvShl(x, y);
        if (flags.nuw) {
            // Some set bit shifted out: (x >> (width - amount)) != 0,
            // checked via round trip.
            BitVec back = b_.bvLShr(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        if (flags.nsw) {
            BitVec back = b_.bvAShr(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        break;
      }
      case Opcode::LShr: {
        CLit oversize = b_.bvULe(
            CircuitBuilder::constBV(APInt(width, width)), y);
        poison = b_.orGate(poison, oversize);
        bits = b_.bvLShr(x, y);
        if (flags.exact) {
            BitVec back = b_.bvShl(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        break;
      }
      case Opcode::AShr: {
        CLit oversize = b_.bvULe(
            CircuitBuilder::constBV(APInt(width, width)), y);
        poison = b_.orGate(poison, oversize);
        bits = b_.bvAShr(x, y);
        if (flags.exact) {
            BitVec back = b_.bvShl(bits, y);
            poison = b_.orGate(poison, -b_.bvEq(back, x));
        }
        break;
      }
      case Opcode::And:
        bits = b_.bvAnd(x, y);
        break;
      case Opcode::Or:
        bits = b_.bvOr(x, y);
        if (flags.disjoint)
            poison = b_.orGate(poison,
                               b_.bvNonZero(b_.bvAnd(x, y)));
        break;
      case Opcode::Xor:
        bits = t_.chain(Op::Xor, x, y);
        break;
      default:
        assert(false);
    }
    return LaneEnc{bits, poison};
}

LaneEnc
Encoder::icmpLane(const Instruction *inst, const LaneEnc &a,
                  const LaneEnc &b)
{
    CLit r = CircuitBuilder::kFalse;
    const BitVec &x = a.bits;
    const BitVec &y = b.bits;
    switch (inst->icmpPred()) {
      case ir::ICmpPred::EQ: r = b_.bvEq(x, y); break;
      case ir::ICmpPred::NE: r = -b_.bvEq(x, y); break;
      // Canonical comparators: everything is an ult/slt node or its
      // negation.
      case ir::ICmpPred::UGT: r = t_.compare(Op::ULt, y, x); break;
      case ir::ICmpPred::UGE: r = -t_.compare(Op::ULt, x, y); break;
      case ir::ICmpPred::ULT: r = t_.compare(Op::ULt, x, y); break;
      case ir::ICmpPred::ULE: r = -t_.compare(Op::ULt, y, x); break;
      case ir::ICmpPred::SGT: r = t_.compare(Op::SLt, y, x); break;
      case ir::ICmpPred::SGE: r = -t_.compare(Op::SLt, x, y); break;
      case ir::ICmpPred::SLT: r = t_.compare(Op::SLt, x, y); break;
      case ir::ICmpPred::SLE: r = -t_.compare(Op::SLt, y, x); break;
    }
    return LaneEnc{BitVec{r}, b_.orGate(a.poison, b.poison)};
}

LaneEnc
Encoder::castLane(const Instruction *inst, const LaneEnc &a)
{
    unsigned dst = inst->type()->scalarType()->intWidth();
    const ir::InstFlags &flags = inst->flags();
    CLit poison = a.poison;
    BitVec bits;
    switch (inst->op()) {
      case Opcode::Trunc: {
        bits = CircuitBuilder::bvTrunc(a.bits, dst);
        if (flags.nuw) {
            std::vector<CLit> high(a.bits.begin() + dst, a.bits.end());
            poison = b_.orGate(poison, b_.orMany(high));
        }
        if (flags.nsw) {
            CLit sign = bits.back();
            std::vector<CLit> mismatch;
            for (size_t i = dst; i < a.bits.size(); ++i)
                mismatch.push_back(b_.xorGate(a.bits[i], sign));
            poison = b_.orGate(poison, b_.orMany(mismatch));
        }
        break;
      }
      case Opcode::ZExt:
        bits = CircuitBuilder::bvZext(a.bits, dst);
        if (flags.nneg)
            poison = b_.orGate(poison, a.bits.back());
        break;
      case Opcode::SExt:
        bits = CircuitBuilder::bvSext(a.bits, dst);
        break;
      default:
        assert(false);
    }
    return LaneEnc{bits, poison};
}

BitVec
Encoder::popCount(const BitVec &x)
{
    unsigned width = x.size();
    BitVec acc = CircuitBuilder::constBV(APInt::zero(width));
    for (CLit bit : x) {
        BitVec addend = CircuitBuilder::constBV(APInt::zero(width));
        addend[0] = bit;
        acc = b_.bvAdd(acc, addend);
    }
    return acc;
}

BitVec
Encoder::countLeadingZeros(const BitVec &x)
{
    unsigned width = x.size();
    // Scan from the MSB: result = index of first set bit from the top.
    BitVec result = CircuitBuilder::constBV(APInt(width, width));
    for (unsigned i = 0; i < width; ++i) {
        // If bit i set, leading zeros = width - 1 - i; later (higher)
        // bits override earlier ones as we iterate upward.
        result = b_.bvMux(x[i],
                          CircuitBuilder::constBV(APInt(width,
                                                        width - 1 - i)),
                          result);
    }
    return result;
}

BitVec
Encoder::countTrailingZeros(const BitVec &x)
{
    unsigned width = x.size();
    BitVec result = CircuitBuilder::constBV(APInt(width, width));
    for (int i = static_cast<int>(width) - 1; i >= 0; --i) {
        result = b_.bvMux(x[i],
                          CircuitBuilder::constBV(APInt(width, i)),
                          result);
    }
    return result;
}

LaneEnc
Encoder::intrinsicLane(const Instruction *inst,
                       const std::vector<LaneEnc> &args)
{
    const BitVec &x = args[0].bits;
    unsigned width = x.size();
    CLit poison = args[0].poison;
    BitVec bits;
    switch (inst->intrinsic()) {
      case Intrinsic::UMin:
        poison = b_.orGate(poison, args[1].poison);
        bits = t_.minMax(Op::UMin, x, args[1].bits);
        break;
      case Intrinsic::UMax:
        poison = b_.orGate(poison, args[1].poison);
        bits = t_.minMax(Op::UMax, x, args[1].bits);
        break;
      case Intrinsic::SMin:
        poison = b_.orGate(poison, args[1].poison);
        bits = t_.minMax(Op::SMin, x, args[1].bits);
        break;
      case Intrinsic::SMax:
        poison = b_.orGate(poison, args[1].poison);
        bits = t_.minMax(Op::SMax, x, args[1].bits);
        break;
      case Intrinsic::Abs: {
        CLit is_min = b_.bvEq(
            x, CircuitBuilder::constBV(APInt::signedMin(width)));
        // args[1] is a constant immarg.
        if (args[1].bits[0] == CircuitBuilder::kTrue)
            poison = b_.orGate(poison, is_min);
        bits = t_.abs(x);
        break;
      }
      case Intrinsic::CtPop:
        bits = popCount(x);
        break;
      case Intrinsic::CtLz: {
        if (args[1].bits[0] == CircuitBuilder::kTrue)
            poison = b_.orGate(poison, -b_.bvNonZero(x));
        bits = countLeadingZeros(x);
        break;
      }
      case Intrinsic::CtTz: {
        if (args[1].bits[0] == CircuitBuilder::kTrue)
            poison = b_.orGate(poison, -b_.bvNonZero(x));
        bits = countTrailingZeros(x);
        break;
      }
      case Intrinsic::USubSat:
        poison = b_.orGate(poison, args[1].poison);
        bits = t_.usubSat(x, args[1].bits);
        break;
      case Intrinsic::UAddSat:
        poison = b_.orGate(poison, args[1].poison);
        bits = t_.uaddSat(x, args[1].bits);
        break;
      case Intrinsic::SSubSat: {
        poison = b_.orGate(poison, args[1].poison);
        CLit ovf = b_.subOverflowsS(x, args[1].bits);
        BitVec sat = b_.bvMux(
            b_.bvSLe(args[1].bits, x),
            CircuitBuilder::constBV(APInt::signedMax(width)),
            CircuitBuilder::constBV(APInt::signedMin(width)));
        bits = b_.bvMux(ovf, sat, b_.bvSub(x, args[1].bits));
        break;
      }
      case Intrinsic::SAddSat: {
        poison = b_.orGate(poison, args[1].poison);
        CLit ovf = b_.addOverflowsS(x, args[1].bits);
        BitVec sat = b_.bvMux(
            x.back(),
            CircuitBuilder::constBV(APInt::signedMin(width)),
            CircuitBuilder::constBV(APInt::signedMax(width)));
        bits = b_.bvMux(ovf, sat, b_.bvAdd(x, args[1].bits));
        break;
      }
      default:
        assert(false && "unencodable intrinsic");
    }
    return LaneEnc{bits, poison};
}

void
Encoder::encodeInstruction(const Instruction *inst)
{
    unsigned lanes = laneCount(inst->type());
    ValueEnc out;

    if (inst->isIntBinaryOp()) {
        ValueEnc a = valueOf(inst->operand(0));
        ValueEnc b = valueOf(inst->operand(1));
        // Below full demand, build the low bits alone; the rest are
        // never read.
        const unsigned width = inst->type()->scalarType()->intWidth();
        const unsigned demand =
            lowBitsOnly(inst) ? std::max(demand_[inst], 1u) : width;
        for (unsigned i = 0; i < lanes; ++i) {
            if (demand < width) {
                a[i].bits.resize(demand);
                b[i].bits.resize(demand);
            }
            out.push_back(intBinaryLane(inst, a[i], b[i]));
            out.back().bits.resize(width, CircuitBuilder::kFalse);
        }
        env_[inst] = out;
        return;
    }
    switch (inst->op()) {
      case Opcode::ICmp: {
        ValueEnc a = valueOf(inst->operand(0));
        ValueEnc b = valueOf(inst->operand(1));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(icmpLane(inst, a[i], b[i]));
        break;
      }
      case Opcode::Select: {
        ValueEnc cond = valueOf(inst->operand(0));
        ValueEnc tval = valueOf(inst->operand(1));
        ValueEnc fval = valueOf(inst->operand(2));
        bool scalar_cond = inst->operand(0)->type()->isBool();
        for (unsigned i = 0; i < lanes; ++i) {
            const LaneEnc &c = scalar_cond ? cond[0] : cond[i];
            CLit sel = c.bits[0];
            LaneEnc lane;
            lane.bits = t_.select(sel, tval[i].bits, fval[i].bits);
            CLit chosen_poison =
                b_.muxGate(sel, tval[i].poison, fval[i].poison);
            lane.poison = b_.orGate(c.poison, chosen_poison);
            out.push_back(lane);
        }
        break;
      }
      case Opcode::Trunc: case Opcode::ZExt: case Opcode::SExt: {
        ValueEnc a = valueOf(inst->operand(0));
        for (unsigned i = 0; i < lanes; ++i)
            out.push_back(castLane(inst, a[i]));
        break;
      }
      case Opcode::Freeze: {
        ValueEnc a = valueOf(inst->operand(0));
        unsigned width = inst->type()->scalarType()->intWidth();
        for (unsigned i = 0; i < lanes; ++i) {
            LaneEnc lane;
            lane.bits = b_.bvMux(
                a[i].poison,
                CircuitBuilder::constBV(APInt::zero(width)), a[i].bits);
            lane.poison = CircuitBuilder::kFalse;
            out.push_back(lane);
        }
        break;
      }
      case Opcode::Call: {
        std::vector<ValueEnc> args;
        for (const Value *operand : inst->operands())
            args.push_back(valueOf(operand));
        for (unsigned i = 0; i < lanes; ++i) {
            std::vector<LaneEnc> lane_args;
            for (const ValueEnc &arg : args)
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

std::optional<EncodedFunction>
Encoder::run(const ir::Function &fn, const std::vector<ValueEnc> *shared)
{
    if (!canEncode(fn))
        return std::nullopt;

    computeDemand(fn);
    EncodedFunction result;
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const Type *type = fn.arg(i)->type();
        ValueEnc enc;
        if (shared) {
            enc = (*shared)[i];
        } else {
            unsigned lanes = laneCount(type);
            unsigned width = type->scalarType()->intWidth();
            for (unsigned lane = 0; lane < lanes; ++lane)
                enc.push_back(LaneEnc{b_.freshBV(width),
                                      CircuitBuilder::kFalse});
        }
        env_[fn.arg(i)] = enc;
        result.args.push_back(enc);
    }
    const ir::BasicBlock *entry = fn.entry();
    for (const auto &inst : entry->instructions()) {
        if (inst->op() == Opcode::Ret) {
            result.ret = valueOf(inst->operand(0));
            result.ub = ub_;
            return result;
        }
        encodeInstruction(inst.get());
    }
    return std::nullopt; // no ret found (unreachable for valid IR)
}

} // namespace

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

namespace {

std::optional<EncodedFunction>
encodeWith(TermTable &terms, smt::CircuitBuilder &builder,
           const ir::Function &fn, const std::vector<ValueEnc> *shared_args)
{
    // Chaos-test injection: the bit-blaster blowing up mid-encoding
    // (resource exhaustion in real deployments). The per-case
    // containment in core/pipeline.cc must convert this into a
    // case-level failure, never a lost module run.
    if (LPO_FAILPOINT("bitblast.throw"))
        throw FailPointError("injected bit-blaster failure "
                             "(failpoint bitblast.throw)");
    Encoder encoder(builder, terms);
    return encoder.run(fn, shared_args);
}

} // namespace

std::optional<EncodedFunction>
encodeFunction(smt::CircuitBuilder &builder, const ir::Function &fn,
               const std::vector<ValueEnc> *shared_args)
{
    TermTable terms(builder);
    return encodeWith(terms, builder, fn, shared_args);
}

namespace {

/** Fresh, non-poison argument encodings for @p fn's signature, so src
 *  and tgt range over identical inputs. */
std::vector<ValueEnc>
encodeSharedArgs(smt::CircuitBuilder &builder, const ir::Function &fn)
{
    std::vector<ValueEnc> args;
    for (unsigned i = 0; i < fn.numArgs(); ++i) {
        const Type *type = fn.arg(i)->type();
        ValueEnc enc;
        unsigned lanes = laneCount(type);
        unsigned width = type->scalarType()->intWidth();
        for (unsigned lane = 0; lane < lanes; ++lane)
            enc.push_back(LaneEnc{builder.freshBV(width),
                                  CircuitBuilder::kFalse});
        args.push_back(enc);
    }
    return args;
}

/**
 * The refinement-violation literal over two encodings that share
 * their arguments:
 *
 *   !src.ub && (tgt.ub || exists lane:
 *               !src.poison[l] && (tgt.poison[l] || bits differ))
 */
CLit
refinementViolation(smt::CircuitBuilder &builder,
                    const EncodedFunction &src_enc,
                    const EncodedFunction &tgt_enc)
{
    std::vector<CLit> lane_violations;
    for (size_t lane = 0; lane < src_enc.ret.size(); ++lane) {
        const LaneEnc &s = src_enc.ret[lane];
        const LaneEnc &t = tgt_enc.ret[lane];
        CLit mismatch = builder.orGate(
            t.poison, -builder.bvEq(s.bits, t.bits));
        lane_violations.push_back(
            builder.andGate(-s.poison, mismatch));
    }
    CLit violation = builder.orGate(tgt_enc.ub,
                                    builder.orMany(lane_violations));
    return builder.andGate(-src_enc.ub, violation);
}

} // namespace

bool
encodeRefinementQuery(smt::CircuitBuilder &builder,
                      const ir::Function &src, const ir::Function &tgt,
                      std::vector<ValueEnc> *shared_args_out)
{
    std::vector<ValueEnc> args = encodeSharedArgs(builder, src);

    // One term table for both sides, so they meet in the same nodes.
    TermTable terms(builder);
    std::optional<EncodedFunction> src_enc =
        encodeWith(terms, builder, src, &args);
    std::optional<EncodedFunction> tgt_enc =
        encodeWith(terms, builder, tgt, &args);
    if (!src_enc || !tgt_enc)
        return false;

    CLit violation = refinementViolation(builder, *src_enc, *tgt_enc);
    builder.require(violation);
    // A miter that folds to true constrains nothing, so require()
    // emitted nothing; emit the circuit anyway, since a counterexample
    // is read from the argument variables.
    if (violation == CircuitBuilder::kTrue)
        builder.emit();
    if (shared_args_out)
        *shared_args_out = std::move(args);
    return true;
}

} // namespace lpo::verify
