#include "egraph/egraph.h"

#include <algorithm>

#include "support/string_utils.h"

namespace lpo::egraph {

using ir::Instruction;
using ir::Opcode;
using ir::Value;

bool
ENode::operator==(const ENode &other) const
{
    return tag == other.tag && type == other.type && op == other.op &&
           flags == other.flags && icmp_pred == other.icmp_pred &&
           fcmp_pred == other.fcmp_pred &&
           intrinsic == other.intrinsic &&
           access_type == other.access_type && align == other.align &&
           arg_index == other.arg_index && constant == other.constant &&
           children == other.children;
}

uint32_t
EGraph::hashNode(const ENode &node)
{
    uint64_t h = hashCombine(static_cast<uint64_t>(node.tag),
                             reinterpret_cast<uintptr_t>(node.type));
    h = hashCombine(h, static_cast<uint64_t>(node.op));
    const ir::InstFlags &f = node.flags;
    h = hashCombine(h, (uint64_t(f.nuw) << 0) | (uint64_t(f.nsw) << 1) |
                           (uint64_t(f.exact) << 2) |
                           (uint64_t(f.disjoint) << 3) |
                           (uint64_t(f.nneg) << 4) |
                           (uint64_t(f.inbounds) << 5));
    h = hashCombine(h, static_cast<uint64_t>(node.icmp_pred));
    h = hashCombine(h, static_cast<uint64_t>(node.fcmp_pred));
    h = hashCombine(h, static_cast<uint64_t>(node.intrinsic));
    h = hashCombine(h, reinterpret_cast<uintptr_t>(node.access_type));
    h = hashCombine(h, node.align);
    h = hashCombine(h, node.arg_index);
    h = hashCombine(h, reinterpret_cast<uintptr_t>(node.constant));
    for (ClassId child : node.children)
        h = hashCombine(h, child);
    // The table indexes by the low bits: mix the high ones down.
    return static_cast<uint32_t>((h * 0x9e3779b97f4a7c15ull) >> 32);
}

ClassId *
EGraph::uniqueFind(const ENode &node, uint32_t hash)
{
    if (unique_slots_.empty())
        return nullptr;
    size_t mask = unique_slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const UniqueSlot &slot = unique_slots_[i];
        if (slot.epoch != unique_epoch_)
            return nullptr;
        if (slot.hash == hash) {
            UniqueEntry &entry = unique_entries_[slot.entry];
            if (entry.node == node)
                return &entry.cls;
        }
    }
}

void
EGraph::uniqueInsert(const ENode &node, ClassId cls, uint32_t hash)
{
    if ((unique_entries_.size() + 1) * 2 > unique_slots_.size())
        uniqueGrow();
    size_t mask = unique_slots_.size() - 1;
    size_t i = hash & mask;
    while (unique_slots_[i].epoch == unique_epoch_)
        i = (i + 1) & mask;
    unique_slots_[i] = {hash, static_cast<uint32_t>(unique_entries_.size()),
                        unique_epoch_};
    unique_entries_.push_back({node, cls, hash});
}

void
EGraph::uniqueGrow()
{
    size_t size = std::max<size_t>(64, unique_slots_.size() * 2);
    unique_slots_.assign(size, UniqueSlot{});
    unique_epoch_ = 1;
    size_t mask = size - 1;
    for (size_t e = 0; e < unique_entries_.size(); ++e) {
        size_t i = unique_entries_[e].hash & mask;
        while (unique_slots_[i].epoch == unique_epoch_)
            i = (i + 1) & mask;
        unique_slots_[i] = {unique_entries_[e].hash,
                            static_cast<uint32_t>(e), unique_epoch_};
    }
}

void
EGraph::reset(ir::Context &context)
{
    context_ = &context;
    parent_.clear();
    unique_entries_.clear();
    if (++unique_epoch_ == 0) { // wrapped: no slot may look live
        std::fill(unique_slots_.begin(), unique_slots_.end(), UniqueSlot{});
        unique_epoch_ = 1;
    }
    rebuild_worklist_.clear();
    nodes_created_ = 0;
    merge_count_ = 0;
    unique_hits_ = 0;
}

bool
EGraph::supports(const ir::Function &fn)
{
    if (fn.blocks().size() != 1)
        return false;
    const Instruction *term = fn.entry()->terminator();
    if (!term || term->op() != Opcode::Ret || term->numOperands() != 1)
        return false;
    for (const auto &inst : fn.entry()->instructions()) {
        switch (inst->op()) {
          case Opcode::Store: // would break load-purity
          case Opcode::Phi:
          case Opcode::Br:
            return false;
          default:
            break;
        }
    }
    return true;
}

size_t
EGraph::insertionUpperBound(const ir::Function &fn)
{
    size_t bound = fn.numArgs();
    for (const auto &bb : fn.blocks())
        for (const auto &inst : bb->instructions())
            bound += 1 + inst->numOperands(); // node + constant leaves
    return bound;
}

ClassId
EGraph::find(ClassId id) const
{
    while (parent_[id] != id)
        id = parent_[id];
    return id;
}

void
EGraph::canonicalize(ENode &node) const
{
    for (ClassId &child : node.children)
        child = find(child);
    if (node.tag != ENode::Tag::Inst || node.children.size() != 2)
        return;
    if (node.op == Opcode::ICmp) {
        // Mirror gt/ge to lt/le (same value, swapped operands), then
        // order the symmetric predicates — one node per comparison.
        switch (node.icmp_pred) {
          case ir::ICmpPred::UGT:
            node.icmp_pred = ir::ICmpPred::ULT;
            std::swap(node.children[0], node.children[1]);
            break;
          case ir::ICmpPred::UGE:
            node.icmp_pred = ir::ICmpPred::ULE;
            std::swap(node.children[0], node.children[1]);
            break;
          case ir::ICmpPred::SGT:
            node.icmp_pred = ir::ICmpPred::SLT;
            std::swap(node.children[0], node.children[1]);
            break;
          case ir::ICmpPred::SGE:
            node.icmp_pred = ir::ICmpPred::SLE;
            std::swap(node.children[0], node.children[1]);
            break;
          case ir::ICmpPred::EQ:
          case ir::ICmpPred::NE:
            if (node.children[0] > node.children[1])
                std::swap(node.children[0], node.children[1]);
            break;
          default:
            break;
        }
        return;
    }
    if (ir::isCommutativeOpcode(node.op, node.intrinsic) &&
        node.children[0] > node.children[1])
        std::swap(node.children[0], node.children[1]);
}

const Value *
EGraph::foldNode(const ENode &node) const
{
    if (node.tag != ENode::Tag::Inst)
        return nullptr;
    // Integer scalar/splat operands only; everything else is opaque.
    // Every folded operator takes one or two operands.
    if (node.children.empty() || node.children.size() > 2)
        return nullptr;
    APInt ops[2];
    for (size_t i = 0; i < node.children.size(); ++i) {
        const Value *c = constantOf(node.children[i]);
        const ir::ConstantInt *ci = c ? ir::asConstIntOrSplat(c) : nullptr;
        if (!ci)
            return nullptr;
        ops[i] = ci->value();
    }
    auto materialize = [&](const APInt &value) -> const Value * {
        return ir::typedConst(*context_, node.type, value);
    };
    // Folds ignore poison flags: the folded constant only ever makes
    // the value more defined, and extraction always prefers the
    // constant (see DESIGN.md, "Refinement-oriented merges").
    switch (node.op) {
      case Opcode::Add: return materialize(ops[0].add(ops[1]));
      case Opcode::Sub: return materialize(ops[0].sub(ops[1]));
      case Opcode::Mul: return materialize(ops[0].mul(ops[1]));
      case Opcode::And: return materialize(ops[0].andOp(ops[1]));
      case Opcode::Or: return materialize(ops[0].orOp(ops[1]));
      case Opcode::Xor: return materialize(ops[0].xorOp(ops[1]));
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr: {
        uint64_t amount = ops[1].zext();
        if (amount >= ops[0].width())
            return nullptr; // poison; leave symbolic
        unsigned k = static_cast<unsigned>(amount);
        if (node.op == Opcode::Shl)
            return materialize(ops[0].shl(k));
        if (node.op == Opcode::LShr)
            return materialize(ops[0].lshr(k));
        return materialize(ops[0].ashr(k));
      }
      case Opcode::Trunc:
        return materialize(
            ops[0].truncTo(node.type->scalarType()->intWidth()));
      case Opcode::ZExt:
        return materialize(
            ops[0].zextTo(node.type->scalarType()->intWidth()));
      case Opcode::SExt:
        return materialize(
            ops[0].sextTo(node.type->scalarType()->intWidth()));
      case Opcode::ICmp: {
        bool bit;
        switch (node.icmp_pred) {
          case ir::ICmpPred::EQ: bit = ops[0].eq(ops[1]); break;
          case ir::ICmpPred::NE: bit = ops[0].ne(ops[1]); break;
          case ir::ICmpPred::ULT: bit = ops[0].ult(ops[1]); break;
          case ir::ICmpPred::ULE: bit = ops[0].ule(ops[1]); break;
          case ir::ICmpPred::UGT: bit = ops[0].ugt(ops[1]); break;
          case ir::ICmpPred::UGE: bit = ops[0].uge(ops[1]); break;
          case ir::ICmpPred::SLT: bit = ops[0].slt(ops[1]); break;
          case ir::ICmpPred::SLE: bit = ops[0].sle(ops[1]); break;
          case ir::ICmpPred::SGT: bit = ops[0].sgt(ops[1]); break;
          case ir::ICmpPred::SGE: bit = ops[0].sge(ops[1]); break;
          default: return nullptr;
        }
        return materialize(APInt(1, bit));
      }
      case Opcode::Call:
        if (node.children.size() != 2)
            return nullptr;
        switch (node.intrinsic) {
          case ir::Intrinsic::UMin:
            return materialize(ops[0].umin(ops[1]));
          case ir::Intrinsic::UMax:
            return materialize(ops[0].umax(ops[1]));
          case ir::Intrinsic::SMin:
            return materialize(ops[0].smin(ops[1]));
          case ir::Intrinsic::SMax:
            return materialize(ops[0].smax(ops[1]));
          default:
            return nullptr;
        }
      default:
        // div/rem (UB on bad divisors), FP, memory: never folded.
        return nullptr;
    }
}

ClassId
EGraph::freshClass(const ENode &node)
{
    ClassId id = static_cast<ClassId>(parent_.size());
    parent_.push_back(id);
    if (classes_.size() <= id)
        classes_.emplace_back();
    EClass &cls = classes_[id];
    cls.nodes.clear();
    cls.parents.clear();
    cls.nodes.push_back(node);
    cls.type = node.type;
    cls.constant = node.tag == ENode::Tag::Const ? node.constant : nullptr;
    for (ClassId child : node.children)
        classes_[child].parents.push_back({node, id});
    ++nodes_created_;
    return id;
}

ClassId
EGraph::add(ENode node)
{
    canonicalize(node);
    uint32_t hash = hashNode(node);
    if (ClassId *hit = uniqueFind(node, hash)) {
        ++unique_hits_;
        return find(*hit);
    }
    if (node.tag == ENode::Tag::Inst) {
        if (const Value *folded = foldNode(node)) {
            ClassId cc = addConstant(folded);
            uniqueInsert(node, cc, hash);
            return cc;
        }
    }
    ClassId id = freshClass(node);
    uniqueInsert(node, id, hash);
    return id;
}

ClassId
EGraph::addArg(unsigned index, const ir::Type *type)
{
    ENode node;
    node.tag = ENode::Tag::Arg;
    node.type = type;
    node.arg_index = index;
    return add(std::move(node));
}

ClassId
EGraph::addConstant(const Value *constant)
{
    ENode node;
    node.tag = ENode::Tag::Const;
    node.type = constant->type();
    node.constant = constant;
    return add(std::move(node));
}

std::optional<ClassId>
EGraph::addFunction(const ir::Function &fn)
{
    if (!supports(fn))
        return std::nullopt;
    // Sequences are short (the extractor caps them at a few dozen
    // instructions), so a backward scan beats a map here.
    std::vector<std::pair<const Value *, ClassId>> &memo = value_classes_;
    memo.clear();
    for (unsigned i = 0; i < fn.numArgs(); ++i)
        memo.push_back({fn.arg(i), addArg(i, fn.arg(i)->type())});

    auto operandClass = [&](const Value *v) -> std::optional<ClassId> {
        for (auto it = memo.rbegin(); it != memo.rend(); ++it)
            if (it->first == v)
                return it->second;
        if (v->isConstant()) {
            ClassId id = addConstant(v);
            memo.push_back({v, id});
            return id;
        }
        return std::nullopt; // use before def: malformed input
    };

    ENode node;
    for (const auto &inst : fn.entry()->instructions()) {
        if (inst->isTerminator())
            break;
        node.tag = ENode::Tag::Inst;
        node.type = inst->type();
        node.op = inst->op();
        node.flags = inst->flags();
        node.icmp_pred = inst->icmpPred();
        node.fcmp_pred = inst->fcmpPred();
        node.intrinsic = inst->intrinsic();
        node.access_type = inst->accessType();
        node.align = inst->align();
        node.children = {};
        for (Value *operand : inst->operands()) {
            auto child = operandClass(operand);
            if (!child)
                return std::nullopt;
            node.children.push_back(*child);
        }
        ClassId id = add(node);
        memo.push_back({inst.get(), id});
    }
    return operandClass(fn.entry()->terminator()->operand(0));
}

ClassId
EGraph::merge(ClassId a, ClassId b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return a;
    // Smaller id wins: fully deterministic representative choice.
    ClassId root = std::min(a, b);
    ClassId child = std::max(a, b);
    parent_[child] = root;
    EClass &rc = classes_[root];
    EClass &cc = classes_[child];
    rc.nodes.insert(rc.nodes.end(), cc.nodes.begin(), cc.nodes.end());
    rc.parents.insert(rc.parents.end(), cc.parents.begin(),
                      cc.parents.end());
    if (!rc.constant)
        rc.constant = cc.constant;
    // Empty the absorbed class but keep its lists' capacity.
    cc.nodes.clear();
    cc.parents.clear();
    cc.constant = nullptr;
    cc.type = nullptr;
    rebuild_worklist_.push_back(root);
    ++merge_count_;
    return root;
}

void
EGraph::rebuild()
{
    std::vector<ClassId> &todo = rebuild_todo_;
    std::vector<std::pair<ENode, ClassId>> &parents = rebuild_parents_;
    std::vector<std::pair<ENode, ClassId>> &repaired = rebuild_repaired_;
    while (!rebuild_worklist_.empty()) {
        todo.clear();
        for (ClassId id : rebuild_worklist_)
            todo.push_back(find(id));
        rebuild_worklist_.clear();
        std::sort(todo.begin(), todo.end());
        todo.erase(std::unique(todo.begin(), todo.end()), todo.end());

        for (ClassId id : todo) {
            ClassId c = find(id);
            parents.clear();
            parents.swap(classes_[c].parents);
            repaired.clear();
            for (auto &[pnode, pclass] : parents) {
                canonicalize(pnode);
                uint32_t hash = hashNode(pnode);
                ClassId pc = find(pclass);
                if (ClassId *hit = uniqueFind(pnode, hash)) {
                    ClassId existing = find(*hit);
                    if (existing != pc)
                        pc = merge(existing, pc); // congruence
                    *hit = pc;
                } else {
                    uniqueInsert(pnode, pc, hash);
                }
                // Children may have just become constant.
                if (!classes_[find(pc)].constant) {
                    if (const Value *folded = foldNode(pnode)) {
                        ClassId cc = addConstant(folded);
                        pc = merge(cc, pc);
                    }
                }
                repaired.push_back({pnode, find(pc)});
            }
            EClass &home = classes_[find(c)];
            home.parents.insert(home.parents.end(), repaired.begin(),
                                repaired.end());
        }
    }
}

void
EGraph::canonicalClasses(std::vector<ClassId> &out) const
{
    out.clear();
    for (ClassId id = 0; id < parent_.size(); ++id)
        if (find(id) == id)
            out.push_back(id);
}

size_t
EGraph::numClasses() const
{
    size_t n = 0;
    for (ClassId id = 0; id < parent_.size(); ++id)
        if (find(id) == id)
            ++n;
    return n;
}

const Value *
EGraph::constantOf(ClassId id) const
{
    return classes_[find(id)].constant;
}

const ir::Type *
EGraph::typeOf(ClassId id) const
{
    return classes_[find(id)].type;
}

} // namespace lpo::egraph
