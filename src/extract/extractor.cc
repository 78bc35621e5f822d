#include "extract/extractor.h"

#include <algorithm>

#include "ir/pattern.h"
#include "ir/printer.h"
#include "opt/opt_driver.h"

namespace lpo::extract {

using ir::BasicBlock;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/** Instructions that can participate in an extracted sequence. */
bool
extractable(const Instruction *inst, const ExtractorOptions &options)
{
    if (inst->isTerminator())
        return false;
    // Phis are block-entry live-ins: their values become arguments of
    // the wrapped function rather than sequence members. Stores have
    // no result and cannot end a returnable sequence, so they are
    // excluded entirely.
    if (inst->op() == Opcode::Phi || inst->op() == Opcode::Store)
        return false;
    // Loads and geps are excluded unless the caller opted in: the SAT
    // encoder cannot handle them, so sequences containing them would
    // silently verify through the weaker concrete backends.
    if (!options.allow_memory &&
        (inst->op() == Opcode::Load || inst->op() == Opcode::Gep))
        return false;
    return true;
}

bool
dependsOn(const std::vector<const Instruction *> &seq,
          const Instruction *inst)
{
    for (const Instruction *member : seq)
        for (const Value *operand : member->operands())
            if (operand == inst)
                return true;
    return false;
}

} // namespace

std::vector<std::vector<const Instruction *>>
Extractor::extractSeqsFromBB(const BasicBlock &bb,
                             const ExtractorOptions &options)
{
    // Each sequence collects its members tail first (the scan runs
    // backwards) and is put in block order at the end.
    std::vector<std::vector<const Instruction *>> seq_set;
    for (size_t i = bb.size(); i > 0; --i) {
        const Instruction *inst = bb.at(i - 1);
        if (!extractable(inst, options))
            continue;
        bool added = false;
        for (std::vector<const Instruction *> &seq : seq_set)
            if (dependsOn(seq, inst)) {
                seq.push_back(inst);
                added = true;
            }
        if (!added)
            seq_set.push_back({inst});
    }
    for (std::vector<const Instruction *> &seq : seq_set)
        std::reverse(seq.begin(), seq.end());
    return seq_set;
}

namespace {

/**
 * Bind every member of @p seq in @p bound, then, in first-use order,
 * every non-constant operand defined outside it, to what @p bind
 * returns for that operand. The one definition of the argument order
 * shared by wrapAsFunction and outsideOperands.
 */
template <typename V, typename Bind>
void
bindOutsideOperands(const std::vector<const Instruction *> &seq,
                    ir::ValueMap<V> &bound, Bind bind)
{
    for (const Instruction *inst : seq)
        bound.insert(inst, V{});
    for (const Instruction *inst : seq)
        for (Value *operand : inst->operands())
            if (!operand->isConstant() && !bound.find(operand))
                bound.insert(operand, bind(operand));
}

} // namespace

std::vector<Value *>
Extractor::outsideOperands(const std::vector<const Instruction *> &seq)
{
    std::vector<Value *> outside;
    ir::ValueMap<bool> bound;
    bindOutsideOperands(seq, bound, [&](Value *operand) {
        outside.push_back(operand);
        return true;
    });
    return outside;
}

std::unique_ptr<ir::Function>
Extractor::wrapAsFunction(ir::Context &context,
                          const std::vector<const Instruction *> &seq,
                          const std::string &name)
{
    if (seq.empty())
        return nullptr;
    const Instruction *last = seq.back();
    if (last->type()->isVoid())
        return nullptr;

    auto fn = std::make_unique<ir::Function>(context, name, last->type());
    ir::BasicBlock *block = fn->addBlock("entry");
    block->reserve(seq.size() + 1);

    // Arguments for every undefined operand, in use order; each member
    // is bound to its clone as it is made (a member's operands are
    // earlier members, already cloned).
    ir::ValueRemap remap;
    bindOutsideOperands(seq, remap, [&](Value *operand) -> Value * {
        return fn->addArg(operand->type(),
                          "a" + std::to_string(fn->numArgs()));
    });
    Value *tail = nullptr;
    for (const Instruction *inst : seq) {
        tail = block->append(ir::cloneInstruction(*inst, remap));
        remap.insert(inst, tail);
    }

    auto ret = std::make_unique<Instruction>(
        Opcode::Ret, context.types().voidTy(), std::vector<Value *>{tail});
    block->append(std::move(ret));
    fn->numberValues();
    return fn;
}

std::vector<ExtractedSequence>
Extractor::extractDetailed(const ir::Module &module)
{
    std::vector<ExtractedSequence> result;
    const uint64_t call = ++calls_;
    ir::Context &context = module.context();
    for (const auto &fn : module.functions()) {
        for (const auto &bb : fn->blocks()) {
            auto seq_set = extractSeqsFromBB(*bb, options_);
            for (const auto &seq : seq_set) {
                ++stats_.sequences_considered;
                if (seq.size() < kMinSequenceLength ||
                    seq.size() > kMaxSequenceLength) {
                    ++stats_.length_filtered;
                    continue;
                }
                auto wrapped = wrapAsFunction(
                    context, seq, "seq" + std::to_string(next_id_));
                if (!wrapped) {
                    ++stats_.unwrappable_skipped;
                    continue;
                }

                // Dedup: bucket by (masked) structural hash, confirm
                // by canonical text — a colliding hash alone must not
                // drop a distinct sequence.
                uint64_t digest =
                    ir::structuralHash(*wrapped) & options_.hash_mask;
                std::string canonical =
                    ir::printFunctionCanonical(*wrapped);
                std::vector<Seen> &bucket = dedup_[digest];
                const Seen *same = nullptr;
                for (const Seen &entry : bucket)
                    if (entry.canonical == canonical) {
                        same = &entry;
                        break;
                    }
                if (same) {
                    ++stats_.duplicates_skipped;
                    if (same->call == call && same->index != kNotExtracted)
                        result[same->index].sites.push_back(
                            SequenceSite{fn.get(), bb.get(), seq});
                    continue;
                }
                if (!bucket.empty())
                    ++stats_.hash_collisions;

                // A true new sequence. Duplicates are filtered before
                // the optimizer probe, so high-duplication module
                // traffic pays the opt pipeline once per unique
                // sequence (rejected sequences are remembered too, so
                // their repeats skip the probe as well). The probe
                // runs on a copy, so a pass that changed the function
                // without reporting it can only let one more sequence
                // through, never hand on a wrapped function that no
                // longer matches its sites; the structural compare
                // runs only when a pass reports a change.
                auto probe = wrapped->clone(wrapped->name());
                if (opt::runStandardPipeline(*probe) &&
                    !ir::structurallyEqual(*wrapped, *probe)) {
                    ++stats_.still_optimizable_skipped;
                    bucket.push_back(
                        Seen{std::move(canonical), call, kNotExtracted});
                    continue;
                }
                ++next_id_;
                ++stats_.extracted;
                bucket.push_back(
                    Seen{std::move(canonical), call, result.size()});
                result.push_back(ExtractedSequence{
                    std::move(wrapped),
                    {SequenceSite{fn.get(), bb.get(), seq}}});
            }
        }
    }
    return result;
}

std::vector<std::unique_ptr<ir::Function>>
Extractor::extractFromModule(const ir::Module &module)
{
    std::vector<std::unique_ptr<ir::Function>> result;
    for (ExtractedSequence &seq : extractDetailed(module))
        result.push_back(std::move(seq.wrapped));
    return result;
}

} // namespace lpo::extract
