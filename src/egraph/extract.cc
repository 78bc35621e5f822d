#include "egraph/extract.h"

#include "ir/builder.h"
#include "ir/printer.h"

namespace lpo::egraph {

namespace {

// Term-key operand words: the kind in the top two bits.
constexpr uint64_t kArgWord = 1ull << 62;
constexpr uint64_t kConstWord = 2ull << 62;
constexpr uint64_t kInstWord = 3ull << 62;

uint64_t
flagBits(const ir::InstFlags &f)
{
    return (uint64_t(f.nuw) << 0) | (uint64_t(f.nsw) << 1) |
           (uint64_t(f.exact) << 2) | (uint64_t(f.disjoint) << 3) |
           (uint64_t(f.nneg) << 4) | (uint64_t(f.inbounds) << 5) |
           (uint64_t(f.tail) << 6);
}

/** The words of one instruction before its operands. */
void
pushHeader(TermKey &key, ir::Opcode op, ir::Intrinsic intrinsic,
           ir::ICmpPred icmp, ir::FCmpPred fcmp, const ir::InstFlags &flags,
           size_t operands, const ir::Type *type,
           const ir::Type *access_type, unsigned align)
{
    key.push_back(uint64_t(op) | (uint64_t(intrinsic) << 8) |
                  (uint64_t(icmp) << 16) | (uint64_t(fcmp) << 24) |
                  (flagBits(flags) << 32) | (uint64_t(operands) << 40));
    key.push_back(reinterpret_cast<uintptr_t>(type));
    key.push_back(reinterpret_cast<uintptr_t>(access_type));
    key.push_back(align);
}

/**
 * Address-free deterministic total order over candidate nodes — the
 * final extraction tie-break, so equal-cost classes pick the same
 * representative in every run and process. Children are rendered
 * canonical, in decimal: the order is the string order ("10" < "9").
 */
void
nodeOrderKey(const EGraph &graph, const ENode &node, std::string &key)
{
    key.clear();
    key += std::to_string(static_cast<int>(node.tag));
    key += '|';
    key += ir::opcodeName(node.op);
    key += '|';
    key += std::to_string(static_cast<int>(node.intrinsic));
    key += '|';
    key += std::to_string(static_cast<int>(node.icmp_pred));
    key += '|';
    key += std::to_string(static_cast<int>(node.fcmp_pred));
    const ir::InstFlags &f = node.flags;
    key += '|';
    key += std::to_string((int(f.nuw) << 0) | (int(f.nsw) << 1) |
                          (int(f.exact) << 2) | (int(f.disjoint) << 3) |
                          (int(f.nneg) << 4) | (int(f.inbounds) << 5));
    key += '|';
    key += std::to_string(node.align);
    key += '|';
    key += std::to_string(node.arg_index);
    key += '|';
    key += node.type ? node.type->toString() : "";
    key += '|';
    key += node.access_type ? node.access_type->toString() : "";
    key += '|';
    if (node.constant)
        key += ir::printValueRef(node.constant);
    for (ClassId child : node.children) {
        key += ',';
        key += std::to_string(graph.find(child));
    }
}

} // namespace

void
functionKey(const ir::Function &fn, TermKey &key)
{
    key.clear();
    if (fn.blocks().size() != 1)
        return;
    const ir::BasicBlock &block = *fn.entry();
    auto operandWord = [&](const ir::Value *v, size_t before) -> uint64_t {
        if (v->kind() == ir::Value::Kind::Argument) {
            unsigned index = static_cast<const ir::Argument *>(v)->index();
            return index < fn.numArgs() && fn.arg(index) == v
                       ? kArgWord | index
                       : 0;
        }
        if (v->isConstant())
            return kConstWord | reinterpret_cast<uintptr_t>(v);
        for (size_t j = before; j-- > 0;)
            if (block.at(j) == v)
                return kInstWord | j;
        return 0; // not defined above: no key
    };
    for (size_t i = 0; i < block.size(); ++i) {
        const ir::Instruction *inst = block.at(i);
        if (inst->isTerminator()) {
            uint64_t word = 0;
            if (inst->op() == ir::Opcode::Ret && inst->numOperands() == 1 &&
                i + 1 == block.size())
                word = operandWord(inst->operand(0), i);
            if (word)
                key.push_back(word);
            else
                key.clear();
            return;
        }
        switch (inst->op()) {
          case ir::Opcode::Store:
          case ir::Opcode::Phi:
            key.clear();
            return;
          default:
            break;
        }
        pushHeader(key, inst->op(), inst->intrinsic(), inst->icmpPred(),
                   inst->fcmpPred(), inst->flags(), inst->numOperands(),
                   inst->type(), inst->accessType(), inst->align());
        for (const ir::Value *operand : inst->operands()) {
            uint64_t word = operandWord(operand, i);
            if (!word) {
                key.clear();
                return;
            }
            key.push_back(word);
        }
    }
    key.clear(); // no terminator
}

bool
Extraction::run(const EGraph &graph, ClassId root, const mca::CpuModel &cpu)
{
    graph_ = &graph;
    root_ = graph.find(root);
    graph.canonicalClasses(classes_);
    best_.assign(graph.classIdBound(), Best{});
    first_node_.resize(graph.classIdBound());
    latency_.clear();
    for (ClassId id : classes_) {
        first_node_[id] = static_cast<uint32_t>(latency_.size());
        for (const ENode &node : graph.cls(id).nodes) {
            double latency = 0.0;
            if (node.tag == ENode::Tag::Inst) {
                const ir::Type *operand_type =
                    node.children.empty()
                        ? nullptr
                        : graph.typeOf(node.children.front());
                latency = mca::operationLatency(node.op, node.intrinsic,
                                                node.type, operand_type, cpu);
            }
            latency_.push_back(latency);
        }
    }
    if (keys_.size() < latency_.size()) {
        keys_.resize(latency_.size());
        key_run_.resize(latency_.size(), 0);
    }
    if (++run_ == 0) {
        std::fill(key_run_.begin(), key_run_.end(), 0);
        run_ = 1;
    }

    // Bellman-style relaxation to a fixpoint. Candidate costs are
    // recomputed from the children's current bests each pass, so
    // improvements propagate upward; cycles through a class can never
    // win (a term through itself always costs strictly more).
    bool changed = true;
    while (changed) {
        changed = false;
        for (ClassId id : classes_) {
            const std::vector<ENode> &nodes = graph.cls(id).nodes;
            for (uint32_t index = 0; index < nodes.size(); ++index) {
                const ENode &node = nodes[index];
                mca::IncrementalCost cost;
                bool ready = true;
                for (ClassId child : node.children) {
                    const Best &b = best_[graph.find(child)];
                    if (!b.valid) {
                        ready = false;
                        break;
                    }
                    cost.addOperand(b.cost);
                }
                if (!ready)
                    continue;
                if (node.tag == ENode::Tag::Inst)
                    cost.addOperation(latency_[first_node_[id] + index]);
                double total = cost.totalCycles(cpu);

                Best &cur = best_[id];
                bool better;
                if (!cur.valid)
                    better = true;
                else if (total != cur.total_cycles)
                    better = total < cur.total_cycles;
                else if (cost.instruction_count !=
                         cur.cost.instruction_count)
                    better = cost.instruction_count <
                             cur.cost.instruction_count;
                else
                    better = index != cur.node &&
                             orderKey(id, index) < orderKey(id, cur.node);
                if (better) {
                    cur.valid = true;
                    cur.cost = cost;
                    cur.total_cycles = total;
                    cur.node = index;
                    changed = true;
                }
            }
        }
    }
    return best_[root_].valid;
}

const ENode &
Extraction::chosen(ClassId id) const
{
    return graph_->cls(id).nodes[best_[id].node];
}

const std::string &
Extraction::orderKey(ClassId id, uint32_t index)
{
    uint32_t flat = first_node_[id] + index;
    if (key_run_[flat] != run_) {
        nodeOrderKey(*graph_, graph_->cls(id).nodes[index], keys_[flat]);
        key_run_[flat] = run_;
    }
    return keys_[flat];
}

void
Extraction::termKey(TermKey &key)
{
    key.clear();
    words_.assign(graph_->classIdBound(), 0);
    next_name_ = 0;
    key.push_back(keyTerm(root_, key));
}

/** The operand word of class @p id, appending its instructions (in
 *  materialize()'s emission order) to @p key on first use. */
uint64_t
Extraction::keyTerm(ClassId id, TermKey &key)
{
    id = graph_->find(id);
    if (words_[id])
        return words_[id];
    const ENode &node = chosen(id);
    uint64_t word = 0;
    switch (node.tag) {
      case ENode::Tag::Arg:
        word = kArgWord | node.arg_index;
        break;
      case ENode::Tag::Const:
        word = kConstWord | reinterpret_cast<uintptr_t>(node.constant);
        break;
      case ENode::Tag::Inst:
        for (ClassId child : node.children)
            keyTerm(child, key);
        pushHeader(key, node.op, node.intrinsic, node.icmp_pred,
                   node.fcmp_pred, node.flags, node.children.size(),
                   node.type, node.access_type, node.align);
        for (ClassId child : node.children)
            key.push_back(keyTerm(child, key));
        word = kInstWord | next_name_++;
        break;
    }
    words_[id] = word;
    return word;
}

std::unique_ptr<ir::Function>
Extraction::materialize(const ir::Function &signature)
{
    auto out = std::make_unique<ir::Function>(
        graph_->context(), signature.name(), signature.returnType());
    for (const auto &arg : signature.args())
        out->addArg(arg->type(), arg->name());
    ir::BasicBlock *block = out->addBlock("entry");

    emitted_.assign(graph_->classIdBound(), nullptr);
    next_name_ = 0;
    failed_ = false;
    ir::Value *result = emit(root_, *out, *block);
    if (failed_ || !result || result->type() != signature.returnType())
        return nullptr;
    ir::Builder builder(*out, block);
    builder.ret(result);
    out->numberValues();
    return out;
}

/** Materialize class @p id's chosen term; shared classes emit once. */
ir::Value *
Extraction::emit(ClassId id, ir::Function &out, ir::BasicBlock &block)
{
    id = graph_->find(id);
    if (emitted_[id])
        return emitted_[id];
    const ENode &node = chosen(id);
    ir::Value *value = nullptr;
    switch (node.tag) {
      case ENode::Tag::Arg:
        if (node.arg_index >= out.numArgs()) {
            failed_ = true;
            return nullptr;
        }
        value = out.arg(node.arg_index);
        break;
      case ENode::Tag::Const:
        // Constants are interned and immutable; operand lists just
        // carry them non-const.
        value = const_cast<ir::Value *>(node.constant);
        break;
      case ENode::Tag::Inst: {
        std::vector<ir::Value *> operands;
        operands.reserve(node.children.size());
        for (ClassId child : node.children) {
            ir::Value *operand = emit(child, out, block);
            if (!operand) {
                failed_ = true;
                return nullptr;
            }
            operands.push_back(operand);
        }
        auto inst = std::make_unique<ir::Instruction>(node.op, node.type,
                                                      std::move(operands));
        inst->flags() = node.flags;
        inst->setICmpPred(node.icmp_pred);
        inst->setFCmpPred(node.fcmp_pred);
        inst->setIntrinsic(node.intrinsic);
        inst->setAccessType(node.access_type);
        inst->setAlign(node.align);
        inst->setName("e" + std::to_string(next_name_++));
        value = block.append(std::move(inst));
        break;
      }
    }
    emitted_[id] = value;
    return value;
}

std::unique_ptr<ir::Function>
extractFunction(const EGraph &graph, ClassId root,
                const ir::Function &signature, const mca::CpuModel &cpu)
{
    Extraction extraction;
    if (!extraction.run(graph, root, cpu))
        return nullptr;
    return extraction.materialize(signature);
}

} // namespace lpo::egraph
