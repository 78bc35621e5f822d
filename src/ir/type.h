/**
 * @file
 * The IR type system.
 *
 * Mirrors the LLVM IR types used by peephole optimization workloads:
 * iN integers (1..64 bits), double-precision floats, opaque pointers,
 * fixed vectors of integers or floats, and void. Types are interned in
 * a TypeContext, so equality is pointer identity.
 */
#ifndef LPO_IR_TYPE_H
#define LPO_IR_TYPE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace lpo::ir {

class TypeContext;

/** An interned IR type. */
class Type
{
  public:
    enum class Kind { Void, Int, Float, Ptr, Vector };

    Kind kind() const { return kind_; }

    bool isVoid() const { return kind_ == Kind::Void; }
    bool isInt() const { return kind_ == Kind::Int; }
    bool isFloat() const { return kind_ == Kind::Float; }
    bool isPtr() const { return kind_ == Kind::Ptr; }
    bool isVector() const { return kind_ == Kind::Vector; }

    /** For Int types: the bit width. */
    unsigned intWidth() const { return width_; }
    /** For Vector types: the number of lanes. */
    unsigned lanes() const { return lanes_; }
    /** For Vector types: the element type; otherwise this type. */
    const Type *scalarType() const { return elem_ ? elem_ : this; }

    /** True if this is iN or a vector of iN. */
    bool isIntOrIntVector() const;
    /** True if this is float or a vector of float. */
    bool isFPOrFPVector() const;
    /** True for i1 exactly. */
    bool isBool() const { return isInt() && width_ == 1; }

    /** Byte size used by load/store/gep (vectors are packed). */
    unsigned storeSizeBytes() const;

    /** LLVM-style spelling, e.g. "i32", "<4 x i8>", "ptr"; spelled
     *  once, when the type is interned. */
    const std::string &toString() const { return name_; }
    /** fnv1a64 of toString(), computed once. */
    uint64_t nameHash() const { return name_hash_; }

  private:
    friend class TypeContext;
    Type(Kind kind, unsigned width, unsigned lanes, const Type *elem);

    Kind kind_;
    unsigned width_;      // int bit width (scalar only)
    unsigned lanes_;      // vector lane count
    const Type *elem_;    // vector element type
    std::string name_;
    uint64_t name_hash_ = 0;
};

/** Owner and intern table for Type instances. */
class TypeContext
{
  public:
    TypeContext();
    TypeContext(const TypeContext &) = delete;
    TypeContext &operator=(const TypeContext &) = delete;

    const Type *voidTy() const { return void_; }
    const Type *floatTy() const { return float_; }
    const Type *ptrTy() const { return ptr_; }
    /** The iN type; @p width must be in [1, 64]. */
    const Type *intTy(unsigned width);
    const Type *boolTy() { return intTy(1); }
    /** A fixed vector of @p lanes scalars of type @p elem. */
    const Type *vectorTy(const Type *elem, unsigned lanes);

  private:
    std::vector<std::unique_ptr<Type>> pool_;
    const Type *void_;
    const Type *float_;
    const Type *ptr_;
    std::array<const Type *, 65> ints_{}; ///< by width; null until used
    std::map<std::pair<const Type *, unsigned>, const Type *> vectors_;
};

} // namespace lpo::ir

#endif // LPO_IR_TYPE_H
