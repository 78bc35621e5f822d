#include "smt/bitblast.h"

#include <algorithm>
#include <cassert>

namespace lpo::smt {

namespace {

/** Pattern word @p k of free variable @p var: splitmix64 of the pair,
 *  so signatures depend on variable numbering alone. */
uint64_t
inputPattern(int var, unsigned k)
{
    uint64_t z = ((uint64_t(var) << 2) | k) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Window leaves, and the truth table of each over all 64 rows. */
constexpr size_t kWindowLeaves = 6;
constexpr uint64_t kLeafTables[kWindowLeaves] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull,
};
/** Cone nodes a window may open; past that it is evaluated as it
 *  stands. */
constexpr size_t kWindowExpansions = 16;

int
varOf(CLit lit)
{
    return lit > 0 ? lit : -lit;
}

bool
isConst(CLit lit)
{
    return lit == CircuitBuilder::kTrue || lit == CircuitBuilder::kFalse;
}

} // namespace

CircuitBuilder::Sig
CircuitBuilder::sigOf(CLit lit) const
{
    Sig sig = sigs_[varOf(lit)];
    if (lit < 0)
        for (uint64_t &word : sig)
            word = ~word;
    return sig;
}

bool
CircuitBuilder::normalize(Sig &sig)
{
    bool flip = sig[0] & 1;
    if (flip)
        for (uint64_t &word : sig)
            word = ~word;
    return flip;
}

bool
CircuitBuilder::simulatesConst(CLit lit) const
{
    const Sig &sig = sigs_[varOf(lit)];
    return sig == Sig{} || sig == Sig{~0ull, ~0ull, ~0ull, ~0ull};
}

size_t
CircuitBuilder::sigSlot(const Sig &norm) const
{
    size_t mask = sig_table_.size() - 1;
    uint64_t h = norm[0] * 0x9e3779b97f4a7c15ull;
    for (size_t i = 1; i < norm.size(); ++i)
        h = (h ^ (h >> 29) ^ norm[i]) * 0xbf58476d1ce4e5b9ull;
    for (size_t slot = (h >> 20) & mask;; slot = (slot + 1) & mask) {
        CLit held = sig_table_[slot];
        if (held == 0)
            return slot;
        const Sig &sig = sigs_[varOf(held)];
        uint64_t phase = held < 0 ? ~uint64_t(0) : 0;
        if ((sig[0] ^ phase) == norm[0] && (sig[1] ^ phase) == norm[1] &&
            (sig[2] ^ phase) == norm[2] && (sig[3] ^ phase) == norm[3])
            return slot;
    }
}

void
CircuitBuilder::reserveSigSlot()
{
    // Keep the load at most one half. A rehash re-enters every holder,
    // and signatures are distinct, so each keeps its node.
    if (2 * (sig_entries_ + 1) <= sig_table_.size())
        return;
    std::vector<CLit> old(std::max<size_t>(1024, sig_table_.size() * 2), 0);
    old.swap(sig_table_);
    for (CLit held : old)
        if (held)
            sig_table_[sigSlot(sigOf(held))] = held;
}

void
CircuitBuilder::addToSigTable(CLit lit)
{
    reserveSigSlot();
    Sig sig = sigOf(lit);
    if (normalize(sig))
        lit = -lit;
    size_t slot = sigSlot(sig);
    if (sig_table_[slot] == 0) {
        sig_table_[slot] = lit;
        ++sig_entries_;
    }
}

int
CircuitBuilder::newVar(const Gate &gate, const Sig &sig)
{
    gates_.push_back(gate);
    sigs_.push_back(sig);
    return numNodes();
}

CLit
CircuitBuilder::newGate(uint8_t kind, CLit a, CLit b, const Sig &sig)
{
    int var = newVar(Gate{kind, a, b}, sig);
    // The slot the failed sweep found free for this signature.
    if (pending_slot_ != kNoSlot) {
        sig_table_[pending_slot_] = pending_flip_ ? -var : var;
        ++sig_entries_;
    }
    return var;
}

CLit
CircuitBuilder::sweep(uint8_t kind, CLit a, CLit b, const Sig &sig)
{
    pending_slot_ = kNoSlot;
    Sig norm = sig;
    bool flip = normalize(norm);
    CLit cand = kFalse;
    if (norm != Sig{}) {
        reserveSigSlot();
        size_t slot = sigSlot(norm);
        cand = sig_table_[slot];
        if (cand == 0) {
            pending_slot_ = slot;
            pending_flip_ = flip;
            return 0;
        }
    }
    // An operand that simulates as a constant but is not one failed its
    // own proof (or its window was too small). A gate over it that
    // simulates as a constant, or an xor over it, only shadows that
    // operand and almost never proves; skip those. An and over it can
    // still equal its other operand (when that one implies it), so that
    // candidate is checked.
    if ((kind == kXor || norm == Sig{}) &&
        (simulatesConst(a) || simulatesConst(b)))
        return 0;
    if (flip)
        cand = -cand;
    ++window_checks_;
    if (windowEqual(kind, a, b, cand)) {
        ++merges_;
        return cand;
    }
    ++failed_checks_;
    return 0;
}

bool
CircuitBuilder::windowEqual(uint8_t kind, CLit a, CLit b, CLit cand)
{
    // The window is a cut under both roots: the leaves start as the
    // operands and the candidate, then the highest-numbered gate leaf
    // whose operands still fit is opened, until none fits. Leaves are
    // evaluated as free inputs, so agreement on all 2^6 rows proves the
    // roots equal for every value the leaves can take.
    std::array<int, kWindowLeaves> leaves{};
    size_t num_leaves = 0;
    std::array<int, kWindowExpansions> opened{};
    size_t num_opened = 0;
    auto isLeaf = [&](int var) {
        return std::find(leaves.begin(), leaves.begin() + num_leaves, var) !=
               leaves.begin() + num_leaves;
    };
    for (CLit root : {a, b, cand}) {
        if (isConst(root) || isLeaf(varOf(root)))
            continue;
        leaves[num_leaves++] = varOf(root);
    }
    while (num_opened < kWindowExpansions) {
        size_t best = num_leaves;
        for (size_t i = 0; i < num_leaves; ++i) {
            const Gate &g = gates_[leaves[i]];
            if (g.kind == kFree ||
                (best < num_leaves && leaves[i] < leaves[best]))
                continue;
            size_t grown = num_leaves - 1 + !isLeaf(varOf(g.a)) +
                           (varOf(g.b) != varOf(g.a) && !isLeaf(varOf(g.b)));
            if (grown <= kWindowLeaves)
                best = i;
        }
        if (best == num_leaves)
            break;
        const Gate &g = gates_[leaves[best]];
        opened[num_opened++] = leaves[best];
        leaves[best] = leaves[--num_leaves];
        for (CLit child : {g.a, g.b})
            if (!isLeaf(varOf(child)))
                leaves[num_leaves++] = varOf(child);
    }

    // Opened nodes in variable order are in topological order: a
    // gate's operands exist before it.
    std::sort(opened.begin(), opened.begin() + num_opened);
    std::array<uint64_t, kWindowExpansions> tables{};
    auto value = [&](CLit lit) -> uint64_t {
        if (isConst(lit))
            return lit == kTrue ? ~uint64_t(0) : 0;
        int var = varOf(lit);
        uint64_t t = 0;
        auto leaf = std::find(leaves.begin(), leaves.begin() + num_leaves,
                              var);
        if (leaf != leaves.begin() + num_leaves) {
            t = kLeafTables[leaf - leaves.begin()];
        } else {
            auto at = std::lower_bound(opened.begin(),
                                       opened.begin() + num_opened, var);
            assert(at != opened.begin() + num_opened && *at == var);
            t = tables[at - opened.begin()];
        }
        return lit < 0 ? ~t : t;
    };
    auto apply = [](uint8_t op, uint64_t x, uint64_t y) {
        return op == kAnd ? x & y : x ^ y;
    };
    for (size_t i = 0; i < num_opened; ++i) {
        const Gate &g = gates_[opened[i]];
        tables[i] = apply(g.kind, value(g.a), value(g.b));
    }
    return apply(kind, value(a), value(b)) == value(cand);
}

CLit
CircuitBuilder::lookupNode(const NodeKey &key)
{
    auto it = unique_.find(key);
    if (it == unique_.end())
        return 0;
    ++unique_hits_;
    return it->second;
}

void
CircuitBuilder::insertNode(const NodeKey &key, CLit out)
{
    unique_.emplace(key, out);
}

CLit
CircuitBuilder::freshLit()
{
    int var = numNodes() + 1;
    newVar(Gate{}, {inputPattern(var, 0), inputPattern(var, 1),
                    inputPattern(var, 2), inputPattern(var, 3)});
    addToSigTable(var);
    return var;
}

BitVec
CircuitBuilder::freshBV(unsigned width)
{
    BitVec out(width);
    for (unsigned i = 0; i < width; ++i)
        out[i] = freshLit();
    return out;
}

BitVec
CircuitBuilder::constBV(const APInt &value)
{
    BitVec out(value.width());
    for (unsigned i = 0; i < value.width(); ++i)
        out[i] = ((value.zext() >> i) & 1) ? kTrue : kFalse;
    return out;
}

CLit
CircuitBuilder::andGate(CLit a, CLit b)
{
    if (a == kFalse || b == kFalse)
        return kFalse;
    if (a == kTrue)
        return b;
    if (b == kTrue)
        return a;
    if (a == b)
        return a;
    if (a == -b)
        return kFalse;
    // Canonical operand order; AND nodes cannot normalize negation
    // (and(a,b) and and(-a,b) are distinct functions), but orGate's
    // De Morgan lowering shares through this table.
    if (b < a)
        std::swap(a, b);
    NodeKey key{0, a, b, 0};
    if (CLit hit = lookupNode(key))
        return hit;
    Sig sig = sigOf(a);
    Sig sig_b = sigOf(b);
    for (size_t i = 0; i < sig.size(); ++i)
        sig[i] &= sig_b[i];
    CLit out = sweep(kAnd, a, b, sig);
    if (!out)
        out = newGate(kAnd, a, b, sig);
    insertNode(key, out);
    return out;
}

CLit
CircuitBuilder::orGate(CLit a, CLit b)
{
    return -andGate(-a, -b);
}

CLit
CircuitBuilder::xorGate(CLit a, CLit b)
{
    if (a == kFalse)
        return b;
    if (b == kFalse)
        return a;
    if (a == kTrue)
        return -b;
    if (b == kTrue)
        return -a;
    if (a == b)
        return kFalse;
    if (a == -b)
        return kTrue;
    // Negation normalization: xor(-a, b) == -xor(a, b), so the node
    // is stored over positive literals and the phase returned on top.
    bool negate = false;
    if (a < 0) {
        a = -a;
        negate = !negate;
    }
    if (b < 0) {
        b = -b;
        negate = !negate;
    }
    if (b < a)
        std::swap(a, b);
    NodeKey key{1, a, b, 0};
    CLit out = lookupNode(key);
    if (!out) {
        Sig sig = sigOf(a);
        Sig sig_b = sigOf(b);
        for (size_t i = 0; i < sig.size(); ++i)
            sig[i] ^= sig_b[i];
        out = sweep(kXor, a, b, sig);
        if (!out)
            out = newGate(kXor, a, b, sig);
        insertNode(key, out);
    }
    return negate ? -out : out;
}

CLit
CircuitBuilder::muxGate(CLit sel, CLit t, CLit f)
{
    if (sel == kTrue)
        return t;
    if (sel == kFalse)
        return f;
    if (t == f)
        return t;
    // Selector normalization: mux(-s, t, f) == mux(s, f, t).
    if (sel < 0) {
        sel = -sel;
        std::swap(t, f);
    }
    // Constant/complement arms reduce to single (hashed) gates.
    if (t == kTrue)
        return orGate(sel, f);
    if (t == kFalse)
        return andGate(-sel, f);
    if (f == kFalse)
        return andGate(sel, t);
    if (f == kTrue)
        return orGate(-sel, t);
    if (t == -f)
        return xorGate(sel, f);
    if (t == sel)
        return orGate(sel, f);
    if (t == -sel)
        return andGate(-sel, f);
    if (f == sel)
        return andGate(sel, t);
    if (f == -sel)
        return orGate(-sel, t);
    NodeKey key{2, sel, t, f};
    if (CLit hit = lookupNode(key))
        return hit;
    CLit out = orGate(andGate(sel, t), andGate(-sel, f));
    insertNode(key, out);
    return out;
}

CLit
CircuitBuilder::andMany(const std::vector<CLit> &lits)
{
    CLit out = kTrue;
    for (CLit lit : lits)
        out = andGate(out, lit);
    return out;
}

CLit
CircuitBuilder::orMany(const std::vector<CLit> &lits)
{
    CLit out = kFalse;
    for (CLit lit : lits)
        out = orGate(out, lit);
    return out;
}

void
CircuitBuilder::emit()
{
    const int nodes = numNodes();
    for (int var = emitted_; var < nodes; ++var)
        solver_.newVar();
    assert(solver_.numVars() == nodes &&
           "the builder is the solver's only source of variables");
    for (int out = emitted_ + 1; out <= nodes; ++out) {
        const Gate &g = gates_[out];
        if (g.kind == kAnd) {
            // out <-> a & b
            solver_.addBinary(-out, g.a);
            solver_.addBinary(-out, g.b);
            solver_.addTernary(out, -g.a, -g.b);
        } else if (g.kind == kXor) {
            // out <-> a ^ b
            solver_.addTernary(-out, g.a, g.b);
            solver_.addTernary(-out, -g.a, -g.b);
            solver_.addTernary(out, -g.a, g.b);
            solver_.addTernary(out, g.a, -g.b);
        }
    }
    emitted_ = nodes;
}

void
CircuitBuilder::require(CLit a)
{
    if (a == kTrue)
        return;
    if (a == kFalse) {
        // Nothing built so far can matter: the formula is unsat.
        solver_.addEmptyClause();
        return;
    }
    emit();
    solver_.addUnit(a);
}

void
CircuitBuilder::requireImplies(CLit guard, CLit a)
{
    if (guard == kFalse || a == kTrue)
        return;
    if (guard == kTrue) {
        require(a);
        return;
    }
    if (a == kFalse) {
        require(-guard);
        return;
    }
    emit();
    solver_.addBinary(-guard, a);
}

BitVec
CircuitBuilder::bvAnd(const BitVec &a, const BitVec &b)
{
    assert(a.size() == b.size());
    BitVec out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = andGate(a[i], b[i]);
    return out;
}

BitVec
CircuitBuilder::bvOr(const BitVec &a, const BitVec &b)
{
    assert(a.size() == b.size());
    BitVec out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = orGate(a[i], b[i]);
    return out;
}

BitVec
CircuitBuilder::bvXor(const BitVec &a, const BitVec &b)
{
    assert(a.size() == b.size());
    BitVec out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = xorGate(a[i], b[i]);
    return out;
}

BitVec
CircuitBuilder::bvNot(const BitVec &a)
{
    BitVec out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = -a[i];
    return out;
}

BitVec
CircuitBuilder::bvMux(CLit sel, const BitVec &t, const BitVec &f)
{
    assert(t.size() == f.size());
    BitVec out(t.size());
    for (size_t i = 0; i < t.size(); ++i)
        out[i] = muxGate(sel, t[i], f[i]);
    return out;
}

CLit
CircuitBuilder::carryGate(CLit a, CLit b, CLit axb, CLit carry)
{
    // Against a constant bit the majority is one gate: a | carry when
    // the bit is set, a & carry when it is clear.
    if (isConst(a))
        std::swap(a, b);
    if (isConst(b))
        return b == kTrue ? orGate(a, carry) : andGate(a, carry);
    return orGate(andGate(a, b), andGate(axb, carry));
}

BitVec
CircuitBuilder::bvAdd(const BitVec &a, const BitVec &b, CLit *carry_out)
{
    assert(a.size() == b.size());
    BitVec out(a.size());
    CLit carry = kFalse;
    for (size_t i = 0; i < a.size(); ++i) {
        CLit axb = xorGate(a[i], b[i]);
        out[i] = xorGate(axb, carry);
        carry = carryGate(a[i], b[i], axb, carry);
    }
    if (carry_out)
        *carry_out = carry;
    return out;
}

BitVec
CircuitBuilder::bvSub(const BitVec &a, const BitVec &b, CLit *borrow_out)
{
    // a - b = a + ~b + 1; borrow = !carry_out.
    BitVec nb = bvNot(b);
    assert(a.size() == b.size());
    BitVec out(a.size());
    CLit carry = kTrue;
    for (size_t i = 0; i < a.size(); ++i) {
        CLit axb = xorGate(a[i], nb[i]);
        out[i] = xorGate(axb, carry);
        carry = carryGate(a[i], nb[i], axb, carry);
    }
    if (borrow_out)
        *borrow_out = -carry;
    return out;
}

BitVec
CircuitBuilder::bvNeg(const BitVec &a)
{
    BitVec zero(a.size(), kFalse);
    return bvSub(zero, a);
}

BitVec
CircuitBuilder::bvMul(const BitVec &a, const BitVec &b)
{
    assert(a.size() == b.size());
    size_t width = a.size();
    BitVec acc(width, kFalse);
    for (size_t i = 0; i < width; ++i) {
        // acc += (b[i] ? a << i : 0)
        BitVec partial(width, kFalse);
        for (size_t j = 0; i + j < width; ++j)
            partial[i + j] = andGate(a[j], b[i]);
        acc = bvAdd(acc, partial);
    }
    return acc;
}

BitVec
CircuitBuilder::bvMulFull(const BitVec &a, const BitVec &b)
{
    BitVec wide_a = bvZext(a, a.size() * 2);
    BitVec wide_b = bvZext(b, b.size() * 2);
    return bvMul(wide_a, wide_b);
}

void
CircuitBuilder::bvDivRem(bool is_signed, const BitVec &x, const BitVec &y,
                         CLit guard, BitVec *quotient, BitVec *remainder)
{
    auto [it, fresh] = divisions_.try_emplace(DivKey{is_signed, x, y});
    Division &div = it->second;
    if (!fresh) {
        *quotient = div.q;
        *remainder = div.r;
        // The same division again: its constraints pin q and r wherever
        // any of its guards holds, so assert them under this guard too.
        for (CLit guarded : div.guards)
            if (guarded == guard)
                return;
        div.guards.push_back(guard);
        for (CLit constraint : div.constraints)
            requireImplies(guard, constraint);
        return;
    }
    unsigned width = x.size();
    const BitVec &q = div.q = *quotient = freshBV(width);
    const BitVec &r = div.r = *remainder = freshBV(width);
    div.guards.push_back(guard);
    auto constrain = [&](CLit constraint) {
        div.constraints.push_back(constraint);
        requireImplies(guard, constraint);
    };
    if (!is_signed) {
        // guard -> (zext(x) == zext(q)*zext(y) + zext(r)), using 2w
        // bits so the product cannot wrap, plus guard -> r < y.
        BitVec prod = bvMul(bvZext(q, width * 2), bvZext(y, width * 2));
        BitVec sum = bvAdd(prod, bvZext(r, width * 2));
        constrain(bvEq(sum, bvZext(x, width * 2)));
        constrain(bvULt(r, y));
        return;
    }
    // Signed constraints in 2w bits: sext(x) == sext(q)*sext(y)+sext(r),
    // |r| < |y|, and r == 0 or sign(r) == sign(x). This pins down the
    // C-style truncating quotient for every case except INT_MIN / -1,
    // which the caller guards as UB.
    BitVec xs = bvSext(x, width * 2);
    BitVec qs = bvSext(q, width * 2);
    BitVec ys = bvSext(y, width * 2);
    BitVec rs = bvSext(r, width * 2);
    BitVec prod = bvMul(qs, ys);
    BitVec sum = bvAdd(prod, rs);
    constrain(bvEq(sum, xs));
    // |r| < |y| via absolute values in 2w bits (no overflow there).
    CLit r_negative = rs.back();
    CLit y_negative = ys.back();
    BitVec abs_r = bvMux(r_negative, bvNeg(rs), rs);
    BitVec abs_y = bvMux(y_negative, bvNeg(ys), ys);
    constrain(bvULt(abs_r, abs_y));
    CLit r_zero = -bvNonZero(r);
    CLit x_negative = x.back();
    constrain(orGate(r_zero, iffGate(r_negative, x_negative)));
}

BitVec
CircuitBuilder::bvShl(const BitVec &a, const BitVec &amount)
{
    unsigned width = a.size();
    BitVec current = a;
    // Barrel shifter over the meaningful amount bits.
    for (unsigned stage = 0; (1u << stage) < width * 2 &&
                             stage < amount.size(); ++stage) {
        unsigned shift = 1u << stage;
        BitVec shifted(width, kFalse);
        for (unsigned i = shift; i < width; ++i)
            shifted[i] = current[i - shift];
        current = bvMux(amount[stage], shifted, current);
    }
    // Amount >= width (via high bits or accumulated shift) yields 0;
    // the encoder turns that case into poison before using the value,
    // but keep the circuit well-defined regardless.
    std::vector<CLit> high_bits;
    for (size_t i = 0; i < amount.size(); ++i)
        if ((1ull << i) >= width)
            high_bits.push_back(amount[i]);
    CLit oversize = orMany(high_bits);
    BitVec zero(width, kFalse);
    return bvMux(oversize, zero, current);
}

BitVec
CircuitBuilder::bvLShr(const BitVec &a, const BitVec &amount)
{
    unsigned width = a.size();
    BitVec current = a;
    for (unsigned stage = 0; (1u << stage) < width * 2 &&
                             stage < amount.size(); ++stage) {
        unsigned shift = 1u << stage;
        BitVec shifted(width, kFalse);
        for (unsigned i = 0; i + shift < width; ++i)
            shifted[i] = current[i + shift];
        current = bvMux(amount[stage], shifted, current);
    }
    std::vector<CLit> high_bits;
    for (size_t i = 0; i < amount.size(); ++i)
        if ((1ull << i) >= width)
            high_bits.push_back(amount[i]);
    CLit oversize = orMany(high_bits);
    BitVec zero(width, kFalse);
    return bvMux(oversize, zero, current);
}

BitVec
CircuitBuilder::bvAShr(const BitVec &a, const BitVec &amount)
{
    unsigned width = a.size();
    CLit sign = a.back();
    BitVec current = a;
    for (unsigned stage = 0; (1u << stage) < width * 2 &&
                             stage < amount.size(); ++stage) {
        unsigned shift = 1u << stage;
        BitVec shifted(width, sign);
        for (unsigned i = 0; i + shift < width; ++i)
            shifted[i] = current[i + shift];
        current = bvMux(amount[stage], shifted, current);
    }
    std::vector<CLit> high_bits;
    for (size_t i = 0; i < amount.size(); ++i)
        if ((1ull << i) >= width)
            high_bits.push_back(amount[i]);
    CLit oversize = orMany(high_bits);
    BitVec filled(width, sign);
    return bvMux(oversize, filled, current);
}

CLit
CircuitBuilder::bvEq(const BitVec &a, const BitVec &b)
{
    assert(a.size() == b.size());
    std::vector<CLit> bits;
    for (size_t i = 0; i < a.size(); ++i)
        bits.push_back(iffGate(a[i], b[i]));
    return andMany(bits);
}

CLit
CircuitBuilder::bvULt(const BitVec &a, const BitVec &b)
{
    CLit borrow = kFalse;
    bvSub(a, b, &borrow);
    return borrow;
}

CLit
CircuitBuilder::bvULe(const BitVec &a, const BitVec &b)
{
    return -bvULt(b, a);
}

CLit
CircuitBuilder::bvSLt(const BitVec &a, const BitVec &b)
{
    // Flip sign bits and compare unsigned.
    BitVec fa = a;
    BitVec fb = b;
    fa.back() = -fa.back();
    fb.back() = -fb.back();
    return bvULt(fa, fb);
}

CLit
CircuitBuilder::bvSLe(const BitVec &a, const BitVec &b)
{
    return -bvSLt(b, a);
}

CLit
CircuitBuilder::bvNonZero(const BitVec &a)
{
    return orMany(a);
}

BitVec
CircuitBuilder::bvTrunc(const BitVec &a, unsigned width)
{
    assert(width <= a.size());
    return BitVec(a.begin(), a.begin() + width);
}

BitVec
CircuitBuilder::bvZext(const BitVec &a, unsigned width)
{
    assert(width >= a.size());
    BitVec out = a;
    out.resize(width, kFalse);
    return out;
}

BitVec
CircuitBuilder::bvSext(const BitVec &a, unsigned width)
{
    assert(width >= a.size());
    BitVec out = a;
    out.resize(width, a.back());
    return out;
}

CLit
CircuitBuilder::addOverflowsU(const BitVec &a, const BitVec &b)
{
    CLit carry = kFalse;
    bvAdd(a, b, &carry);
    return carry;
}

CLit
CircuitBuilder::addOverflowsS(const BitVec &a, const BitVec &b)
{
    BitVec sum = bvAdd(a, b);
    CLit same_sign = iffGate(a.back(), b.back());
    return andGate(same_sign, xorGate(sum.back(), a.back()));
}

CLit
CircuitBuilder::subOverflowsU(const BitVec &a, const BitVec &b)
{
    return bvULt(a, b);
}

CLit
CircuitBuilder::subOverflowsS(const BitVec &a, const BitVec &b)
{
    BitVec diff = bvSub(a, b);
    CLit diff_sign = xorGate(a.back(), b.back());
    return andGate(diff_sign, xorGate(diff.back(), a.back()));
}

CLit
CircuitBuilder::mulOverflowsU(const BitVec &a, const BitVec &b)
{
    BitVec full = bvMulFull(a, b);
    std::vector<CLit> high(full.begin() + a.size(), full.end());
    return orMany(high);
}

CLit
CircuitBuilder::mulOverflowsS(const BitVec &a, const BitVec &b)
{
    unsigned width = a.size();
    BitVec full = bvMul(bvSext(a, width * 2), bvSext(b, width * 2));
    // Overflow iff the top w+1 bits are not all equal to bit w-1.
    CLit sign = full[width - 1];
    std::vector<CLit> mismatch;
    for (unsigned i = width; i < width * 2; ++i)
        mismatch.push_back(xorGate(full[i], sign));
    return orMany(mismatch);
}

bool
CircuitBuilder::modelLit(CLit a) const
{
    if (a == kTrue)
        return true;
    if (a == kFalse)
        return false;
    assert(varOf(a) <= solver_.numVars() &&
           "modelLit on a variable emit() has not handed to the solver");
    bool value = solver_.modelValue(varOf(a));
    return a > 0 ? value : !value;
}

APInt
CircuitBuilder::modelBV(const BitVec &a) const
{
    uint64_t value = 0;
    for (size_t i = 0; i < a.size(); ++i)
        if (modelLit(a[i]))
            value |= uint64_t(1) << i;
    return APInt(static_cast<unsigned>(a.size()), value);
}

} // namespace lpo::smt
