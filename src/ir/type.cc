#include "ir/type.h"

#include <cassert>

#include "support/string_utils.h"

namespace lpo::ir {

bool
Type::isIntOrIntVector() const
{
    return isInt() || (isVector() && elem_->isInt());
}

bool
Type::isFPOrFPVector() const
{
    return isFloat() || (isVector() && elem_->isFloat());
}

unsigned
Type::storeSizeBytes() const
{
    switch (kind_) {
      case Kind::Int:
        return (width_ + 7) / 8;
      case Kind::Float:
        return 8;
      case Kind::Ptr:
        return 8;
      case Kind::Vector:
        return lanes_ * elem_->storeSizeBytes();
      case Kind::Void:
        return 0;
    }
    return 0;
}

Type::Type(Kind kind, unsigned width, unsigned lanes, const Type *elem)
    : kind_(kind), width_(width), lanes_(lanes), elem_(elem)
{
    switch (kind_) {
      case Kind::Void: name_ = "void"; break;
      case Kind::Int: name_ = "i" + std::to_string(width_); break;
      case Kind::Float: name_ = "double"; break;
      case Kind::Ptr: name_ = "ptr"; break;
      case Kind::Vector:
        name_ = "<" + std::to_string(lanes_) + " x " + elem_->toString() +
                ">";
        break;
    }
    name_hash_ = fnv1a64(name_);
}

TypeContext::TypeContext()
{
    auto make = [this](Type::Kind k) {
        pool_.emplace_back(new Type(k, 0, 0, nullptr));
        return pool_.back().get();
    };
    void_ = make(Type::Kind::Void);
    float_ = make(Type::Kind::Float);
    ptr_ = make(Type::Kind::Ptr);
}

const Type *
TypeContext::intTy(unsigned width)
{
    assert(width >= 1 && width <= 64 && "unsupported integer width");
    const Type *&ty = ints_[width];
    if (!ty) {
        pool_.emplace_back(new Type(Type::Kind::Int, width, 0, nullptr));
        ty = pool_.back().get();
    }
    return ty;
}

const Type *
TypeContext::vectorTy(const Type *elem, unsigned lanes)
{
    assert((elem->isInt() || elem->isFloat()) && lanes >= 2 &&
           "invalid vector type");
    auto key = std::make_pair(elem, lanes);
    auto it = vectors_.find(key);
    if (it != vectors_.end())
        return it->second;
    pool_.emplace_back(new Type(Type::Kind::Vector, 0, lanes, elem));
    const Type *ty = pool_.back().get();
    vectors_[key] = ty;
    return ty;
}

} // namespace lpo::ir
