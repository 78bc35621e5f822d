/**
 * @file
 * E-graph: hash-consed e-nodes over equivalence classes of terms.
 *
 * The equality-saturation proposer's data structure. An e-class is a
 * set of e-nodes proven equal; an e-node is one operator application
 * whose children are e-classes. Construction is hash-consed through a
 * unique table (the same canonicalization conventions as the
 * smt/bitblast circuit builder: commutative operand ordering, plus
 * icmp gt/ge mirrored to lt/le), merges go through a union-find, and
 * `rebuild` restores congruence closure after a batch of merges. See
 * DESIGN.md, "The e-graph" for the invariants.
 */
#ifndef LPO_EGRAPH_EGRAPH_H
#define LPO_EGRAPH_EGRAPH_H

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "ir/function.h"

namespace lpo::egraph {

/** Identifier of an e-class (stable; resolve via EGraph::find). */
using ClassId = uint32_t;

/**
 * An e-node's child classes, stored inline up to kInline (every binary
 * and ternary operator) and in a spill vector past that, so copying a
 * node into a class, a parent list or the unique table allocates
 * nothing.
 */
class ChildList
{
  public:
    static constexpr size_t kInline = 4;

    ChildList() = default;
    ChildList(std::initializer_list<ClassId> ids)
    {
        for (ClassId id : ids)
            push_back(id);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    ClassId *begin() { return size_ <= kInline ? inline_ : spill_.data(); }
    ClassId *end() { return begin() + size_; }
    const ClassId *begin() const
    {
        return size_ <= kInline ? inline_ : spill_.data();
    }
    const ClassId *end() const { return begin() + size_; }
    ClassId &operator[](size_t i) { return begin()[i]; }
    ClassId operator[](size_t i) const { return begin()[i]; }
    ClassId front() const { return begin()[0]; }

    void push_back(ClassId id)
    {
        if (size_ < kInline) {
            inline_[size_++] = id;
            return;
        }
        if (size_ == kInline)
            spill_.assign(inline_, inline_ + kInline);
        spill_.push_back(id);
        ++size_;
    }

    bool operator==(const ChildList &other) const
    {
        return std::equal(begin(), end(), other.begin(), other.end());
    }

  private:
    size_t size_ = 0;
    ClassId inline_[kInline] = {};
    std::vector<ClassId> spill_; ///< all children, once past kInline
};

/**
 * One operator application over e-class children.
 *
 * Leaves (arguments and constants) carry their own tags so a node is
 * self-contained; instruction nodes carry the full opcode payload an
 * ir::Instruction would (flags, predicates, intrinsic, access type),
 * because all of it is semantically significant.
 */
struct ENode
{
    enum class Tag : uint8_t { Arg, Const, Inst };

    Tag tag = Tag::Inst;
    /** Result type (interned; identity comparison is safe in-run). */
    const ir::Type *type = nullptr;

    // Tag::Inst payload.
    ir::Opcode op = ir::Opcode::Add;
    ir::InstFlags flags;
    ir::ICmpPred icmp_pred = ir::ICmpPred::EQ;
    ir::FCmpPred fcmp_pred = ir::FCmpPred::OEQ;
    ir::Intrinsic intrinsic = ir::Intrinsic::None;
    const ir::Type *access_type = nullptr;
    unsigned align = 0;
    ChildList children;

    // Tag::Arg payload.
    unsigned arg_index = 0;

    // Tag::Const payload: the interned constant (per ir::Context, so
    // pointer identity holds for hash-consing within one graph).
    const ir::Value *constant = nullptr;

    bool operator==(const ENode &other) const;
};

/** An equivalence class of e-nodes. */
struct EClass
{
    /** Member nodes in deterministic insertion order. Children may be
     *  stale (non-canonical) between rebuilds; readers canonicalize. */
    std::vector<ENode> nodes;
    /** (parent node as inserted, parent class) pairs for rebuild. */
    std::vector<std::pair<ENode, ClassId>> parents;
    /** Constant analysis: the interned constant this class is known
     *  to equal, or nullptr. */
    const ir::Value *constant = nullptr;
    /** The class's value type (all members agree). */
    const ir::Type *type = nullptr;
};

/**
 * The e-graph.
 *
 * Determinism contract: class ids are assigned in insertion order,
 * merges pick the smaller root, and no operation's result depends on
 * hash-table layout — so identical add/merge sequences produce
 * identical graphs across runs and processes.
 *
 * Storage is kept for reuse: reset() empties the graph but keeps every
 * buffer (class slots with their node and parent lists, the unique
 * table, the rebuild and insertion scratch), so a graph reused for one
 * function after another stops allocating once it has seen the largest.
 */
class EGraph
{
  public:
    explicit EGraph(ir::Context &context) : context_(&context) {}

    /** Empty the graph for a new function in @p context, keeping the
     *  capacity of every buffer. */
    void reset(ir::Context &context);

    ir::Context &context() const { return *context_; }

    /**
     * True if @p fn is representable: a single block ending in a
     * one-operand ret, with no stores (loads are pure here because
     * nothing can clobber them) and no phi/br.
     */
    static bool supports(const ir::Function &fn);

    /**
     * Insert @p fn's body, returning the class of its returned value.
     * Arguments are keyed by index, so inserting a second function
     * with the same signature shares the argument leaves (this is how
     * directed-rewrite results are unioned in). Returns nullopt when
     * the function is unsupported.
     */
    std::optional<ClassId> addFunction(const ir::Function &fn);

    /**
     * Canonicalize and hash-cons @p node. Constant-foldable nodes
     * collapse to their constant's class without creating an
     * operator node. Every call creates at most one node.
     */
    ClassId add(ENode node);

    /** The class of argument leaf @p index of type @p type. */
    ClassId addArg(unsigned index, const ir::Type *type);
    /** The class of constant leaf @p constant. */
    ClassId addConstant(const ir::Value *constant);

    /** Union two classes; returns the surviving root. Congruence is
     *  restored lazily by the next rebuild(). */
    ClassId merge(ClassId a, ClassId b);

    /** Restore congruence closure and re-canonicalize the unique
     *  table after a batch of merges. */
    void rebuild();

    /** Canonical representative of @p id. */
    ClassId find(ClassId id) const;

    /** Every class id ever assigned is below this bound. */
    size_t classIdBound() const { return parent_.size(); }
    /** Fill @p out with the canonical class ids in ascending order
     *  (deterministic). */
    void canonicalClasses(std::vector<ClassId> &out) const;

    const EClass &cls(ClassId id) const { return classes_[find(id)]; }
    /** Constant the class is known to equal, or nullptr. */
    const ir::Value *constantOf(ClassId id) const;
    const ir::Type *typeOf(ClassId id) const;

    /** Total e-nodes ever created (monotone; the budget metric). */
    size_t numNodes() const { return nodes_created_; }
    /** Number of canonical classes. */
    size_t numClasses() const;
    /** Monotone merge counter (fixpoint detection for saturation). */
    uint64_t mergeCount() const { return merge_count_; }
    /** Unique-table hits (node constructions answered from the table). */
    uint64_t uniqueTableHits() const { return unique_hits_; }

    /**
     * Upper bound on the nodes addFunction(@p fn) can create — used
     * by the saturation loop to skip insertions that would blow the
     * node budget (see DESIGN.md, "Budget semantics").
     */
    static size_t insertionUpperBound(const ir::Function &fn);

  private:
    /** One open-addressing slot: live when its epoch is the table's. */
    struct UniqueSlot
    {
        uint32_t hash = 0;
        uint32_t entry = 0;
        uint32_t epoch = 0;
    };
    struct UniqueEntry
    {
        ENode node;
        ClassId cls = 0;
        uint32_t hash = 0;
    };

    static uint32_t hashNode(const ENode &node);
    /** The class the unique table maps @p node to, or nullptr. The
     *  pointer is valid until the next insertion. */
    ClassId *uniqueFind(const ENode &node, uint32_t hash);
    void uniqueInsert(const ENode &node, ClassId cls, uint32_t hash);
    void uniqueGrow();

    /** Resolve children through the union-find and apply the
     *  commutative / icmp-mirror normalizations. */
    void canonicalize(ENode &node) const;
    /** Try to fold @p node (canonical) to an interned constant. */
    const ir::Value *foldNode(const ENode &node) const;
    ClassId freshClass(const ENode &node);

    ir::Context *context_;
    /** Class slots; those at or past parent_.size() are spare, kept
     *  for their lists' capacity. */
    std::vector<EClass> classes_;
    std::vector<ClassId> parent_;          // union-find
    std::vector<UniqueSlot> unique_slots_; // power-of-two size
    std::vector<UniqueEntry> unique_entries_;
    uint32_t unique_epoch_ = 1;
    std::vector<ClassId> rebuild_worklist_;
    std::vector<ClassId> rebuild_todo_;
    std::vector<std::pair<ENode, ClassId>> rebuild_parents_;
    std::vector<std::pair<ENode, ClassId>> rebuild_repaired_;
    /** addFunction's value-to-class map, in definition order. */
    std::vector<std::pair<const ir::Value *, ClassId>> value_classes_;
    size_t nodes_created_ = 0;
    uint64_t merge_count_ = 0;
    uint64_t unique_hits_ = 0;
};

} // namespace lpo::egraph

#endif // LPO_EGRAPH_EGRAPH_H
