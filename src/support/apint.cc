#include "support/apint.h"

#include <cassert>

namespace lpo {

uint64_t
APInt::mask() const
{
    return width_ == 64 ? ~uint64_t(0) : ((uint64_t(1) << width_) - 1);
}

APInt::APInt(unsigned width, uint64_t value) : width_(width), value_(value)
{
    assert(width >= 1 && width <= 64 && "APInt width out of range");
    value_ &= mask();
}

APInt
APInt::allOnes(unsigned width)
{
    APInt r(width, 0);
    r.value_ = r.mask();
    return r;
}

APInt
APInt::signedMin(unsigned width)
{
    return APInt(width, uint64_t(1) << (width - 1));
}

APInt
APInt::signedMax(unsigned width)
{
    APInt r = allOnes(width);
    r.value_ &= ~(uint64_t(1) << (width - 1));
    return r;
}

APInt
APInt::fromSigned(unsigned width, int64_t value)
{
    return APInt(width, static_cast<uint64_t>(value));
}

int64_t
APInt::sext() const
{
    if (width_ == 64)
        return static_cast<int64_t>(value_);
    uint64_t sign = uint64_t(1) << (width_ - 1);
    if (value_ & sign)
        return static_cast<int64_t>(value_ | ~mask());
    return static_cast<int64_t>(value_);
}

bool APInt::isAllOnes() const { return value_ == mask(); }

bool
APInt::isSignBitSet() const
{
    return (value_ >> (width_ - 1)) & 1;
}

bool
APInt::isSignedMin() const
{
    return value_ == (uint64_t(1) << (width_ - 1));
}

bool
APInt::isPowerOf2() const
{
    return value_ != 0 && (value_ & (value_ - 1)) == 0;
}

unsigned
APInt::countLeadingZeros() const
{
    if (value_ == 0)
        return width_;
    unsigned total = __builtin_clzll(value_);
    return total - (64 - width_);
}

unsigned
APInt::countTrailingZeros() const
{
    if (value_ == 0)
        return width_;
    return __builtin_ctzll(value_);
}

unsigned
APInt::popCount() const
{
    return __builtin_popcountll(value_);
}

APInt APInt::add(const APInt &rhs) const { return {width_, value_ + rhs.value_}; }
APInt APInt::sub(const APInt &rhs) const { return {width_, value_ - rhs.value_}; }
APInt APInt::mul(const APInt &rhs) const { return {width_, value_ * rhs.value_}; }

APInt
APInt::udiv(const APInt &rhs) const
{
    assert(!rhs.isZero() && "udiv by zero");
    return {width_, value_ / rhs.value_};
}

APInt
APInt::urem(const APInt &rhs) const
{
    assert(!rhs.isZero() && "urem by zero");
    return {width_, value_ % rhs.value_};
}

APInt
APInt::sdiv(const APInt &rhs) const
{
    assert(!rhs.isZero() && "sdiv by zero");
    assert(!(isSignedMin() && rhs.isAllOnes()) && "sdiv overflow");
    return fromSigned(width_, sext() / rhs.sext());
}

APInt
APInt::srem(const APInt &rhs) const
{
    assert(!rhs.isZero() && "srem by zero");
    assert(!(isSignedMin() && rhs.isAllOnes()) && "srem overflow");
    return fromSigned(width_, sext() % rhs.sext());
}

APInt APInt::andOp(const APInt &rhs) const { return {width_, value_ & rhs.value_}; }
APInt APInt::orOp(const APInt &rhs) const { return {width_, value_ | rhs.value_}; }
APInt APInt::xorOp(const APInt &rhs) const { return {width_, value_ ^ rhs.value_}; }
APInt APInt::notOp() const { return {width_, ~value_}; }
APInt APInt::neg() const { return {width_, 0 - value_}; }

APInt
APInt::shl(unsigned amount) const
{
    if (amount >= width_)
        return zero(width_);
    return {width_, value_ << amount};
}

APInt
APInt::lshr(unsigned amount) const
{
    if (amount >= width_)
        return zero(width_);
    return {width_, value_ >> amount};
}

APInt
APInt::ashr(unsigned amount) const
{
    if (amount >= width_)
        amount = width_ - 1;
    return fromSigned(width_, sext() >> amount);
}

APInt
APInt::truncTo(unsigned new_width) const
{
    assert(new_width <= width_);
    return {new_width, value_};
}

APInt
APInt::zextTo(unsigned new_width) const
{
    assert(new_width >= width_);
    return {new_width, value_};
}

APInt
APInt::sextTo(unsigned new_width) const
{
    assert(new_width >= width_);
    return fromSigned(new_width, sext());
}

bool
APInt::addOverflowsUnsigned(const APInt &rhs) const
{
    return add(rhs).value_ < value_;
}

bool
APInt::addOverflowsSigned(const APInt &rhs) const
{
    // Exact in 128 bits: at i64 the sum itself can overflow int64_t.
    __int128 wide = static_cast<__int128>(sext()) + rhs.sext();
    return wide != static_cast<__int128>(add(rhs).sext());
}

bool
APInt::subOverflowsUnsigned(const APInt &rhs) const
{
    return value_ < rhs.value_;
}

bool
APInt::subOverflowsSigned(const APInt &rhs) const
{
    // Exact in 128 bits: at i64 the difference itself can overflow
    // int64_t.
    __int128 wide = static_cast<__int128>(sext()) - rhs.sext();
    return wide != static_cast<__int128>(sub(rhs).sext());
}

bool
APInt::mulOverflowsUnsigned(const APInt &rhs) const
{
    if (value_ == 0 || rhs.value_ == 0)
        return false;
    // Use 128-bit multiplication to detect overflow past the width.
    unsigned __int128 wide =
        static_cast<unsigned __int128>(value_) * rhs.value_;
    return wide != (wide & static_cast<unsigned __int128>(mask()));
}

bool
APInt::mulOverflowsSigned(const APInt &rhs) const
{
    __int128 wide = static_cast<__int128>(sext()) * rhs.sext();
    return wide != static_cast<__int128>(mul(rhs).sext());
}

bool
APInt::shlOverflowsUnsigned(unsigned amount) const
{
    if (amount >= width_)
        return value_ != 0;
    return shl(amount).lshr(amount).value_ != value_;
}

bool
APInt::shlOverflowsSigned(unsigned amount) const
{
    if (amount >= width_)
        return value_ != 0;
    return shl(amount).ashr(amount).value_ != value_;
}

std::string
APInt::toString() const
{
    if (width_ > 1 && isSignBitSet())
        return std::to_string(sext());
    return std::to_string(value_);
}

} // namespace lpo
