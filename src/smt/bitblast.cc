#include "smt/bitblast.h"

#include <algorithm>
#include <cassert>

namespace lpo::smt {

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
    return solver_.newVar();
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
    CLit out = freshLit();
    // out <-> a & b
    solver_.addBinary(-out, a);
    solver_.addBinary(-out, b);
    solver_.addTernary(out, -a, -b);
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
        out = freshLit();
        // out <-> a ^ b
        solver_.addTernary(-out, a, b);
        solver_.addTernary(-out, -a, -b);
        solver_.addTernary(out, -a, b);
        solver_.addTernary(out, a, -b);
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
CircuitBuilder::require(CLit a)
{
    if (a == kTrue)
        return;
    if (a == kFalse) {
        // Assert an explicit contradiction.
        int v = solver_.newVar();
        solver_.addUnit(v);
        solver_.addUnit(-v);
        return;
    }
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

BitVec
CircuitBuilder::bvAdd(const BitVec &a, const BitVec &b, CLit *carry_out)
{
    assert(a.size() == b.size());
    BitVec out(a.size());
    CLit carry = kFalse;
    for (size_t i = 0; i < a.size(); ++i) {
        CLit axb = xorGate(a[i], b[i]);
        out[i] = xorGate(axb, carry);
        carry = orGate(andGate(a[i], b[i]), andGate(axb, carry));
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
        carry = orGate(andGate(a[i], nb[i]), andGate(axb, carry));
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
CircuitBuilder::bvUDivRem(const BitVec &x, const BitVec &y, CLit guard,
                          BitVec *quotient, BitVec *remainder)
{
    unsigned width = x.size();
    BitVec q = freshBV(width);
    BitVec r = freshBV(width);
    // guard -> (zext(x) == zext(q)*zext(y) + zext(r)), using 2w bits so
    // the product cannot wrap, plus guard -> r < y.
    BitVec prod = bvMul(bvZext(q, width * 2), bvZext(y, width * 2));
    BitVec sum = bvAdd(prod, bvZext(r, width * 2));
    requireImplies(guard, bvEq(sum, bvZext(x, width * 2)));
    requireImplies(guard, bvULt(r, y));
    *quotient = q;
    *remainder = r;
}

void
CircuitBuilder::bvSDivRem(const BitVec &x, const BitVec &y, CLit guard,
                          BitVec *quotient, BitVec *remainder)
{
    unsigned width = x.size();
    BitVec q = freshBV(width);
    BitVec r = freshBV(width);
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
    requireImplies(guard, bvEq(sum, xs));
    // |r| < |y| via absolute values in 2w bits (no overflow there).
    CLit r_negative = rs.back();
    CLit y_negative = ys.back();
    BitVec abs_r = bvMux(r_negative, bvNeg(rs), rs);
    BitVec abs_y = bvMux(y_negative, bvNeg(ys), ys);
    requireImplies(guard, bvULt(abs_r, abs_y));
    CLit r_zero = -bvNonZero(r);
    CLit x_negative = x.back();
    requireImplies(guard, orGate(r_zero, iffGate(r_negative, x_negative)));
    *quotient = q;
    *remainder = r;
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
    bool value = solver_.modelValue(a > 0 ? a : -a);
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
