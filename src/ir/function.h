/**
 * @file
 * Basic blocks, functions, and cloning utilities.
 */
#ifndef LPO_IR_FUNCTION_H
#define LPO_IR_FUNCTION_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/instruction.h"
#include "ir/value_map.h"

namespace lpo::ir {

class Function;

/** A labelled straight-line sequence of instructions. */
class BasicBlock
{
  public:
    explicit BasicBlock(std::string label) : label_(std::move(label)) {}

    const std::string &label() const { return label_; }

    const std::vector<std::unique_ptr<Instruction>> &
    instructions() const
    {
        return instructions_;
    }

    Instruction *append(std::unique_ptr<Instruction> inst);
    /** Insert @p inst before position @p index. */
    Instruction *insert(size_t index, std::unique_ptr<Instruction> inst);
    /** Remove the instruction at @p index. */
    void erase(size_t index);
    /** Remove a specific instruction (must be present). */
    void erase(const Instruction *inst);
    /** Remove every instruction @p dead holds for, in one pass that
     *  keeps the order of the rest. */
    template <typename Pred>
    void
    eraseIf(Pred dead)
    {
        std::erase_if(instructions_,
                      [&](const std::unique_ptr<Instruction> &inst) {
                          return dead(static_cast<const Instruction *>(
                              inst.get()));
                      });
    }

    size_t size() const { return instructions_.size(); }
    bool empty() const { return instructions_.empty(); }
    Instruction *at(size_t index) const { return instructions_[index].get(); }
    /** The terminator, or nullptr if the block is not yet terminated. */
    Instruction *terminator() const;
    /** Make room for @p count instructions. */
    void reserve(size_t count) { instructions_.reserve(count); }

  private:
    std::string label_;
    std::vector<std::unique_ptr<Instruction>> instructions_;
};

/**
 * A function: arguments plus an ordered list of basic blocks.
 *
 * The first block is the entry block. Most functions handled by the
 * pipeline are single-block wrappers produced by the extractor.
 */
class Function
{
  public:
    Function(Context &context, std::string name, const Type *return_type);

    Context &context() const { return context_; }
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    const Type *returnType() const { return return_type_; }

    Argument *addArg(const Type *type, std::string name);
    const std::vector<std::unique_ptr<Argument>> &args() const
    {
        return args_;
    }
    Argument *arg(unsigned i) const { return args_[i].get(); }
    unsigned numArgs() const { return args_.size(); }

    BasicBlock *addBlock(std::string label);
    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }
    BasicBlock *entry() const { return blocks_.front().get(); }
    BasicBlock *findBlock(const std::string &label) const;

    /** Number of instructions excluding ret/br (the paper's metric). */
    unsigned instructionCount() const;

    /** Count of uses of each value across all instructions. */
    std::map<const Value *, unsigned> computeUseCounts() const;
    /** True if @p v has exactly one use inside this function. */
    bool hasOneUse(const Value *v) const;

    /** Replace every operand use of @p from with @p to. */
    void replaceAllUses(const Value *from, Value *to);

    /** Deep copy into @p into (default: this function's Context),
     *  re-interning every type and constant there, so the copy
     *  outlives this function's Context. */
    std::unique_ptr<Function> clone(const std::string &new_name,
                                    Context *into = nullptr) const;

    /** Assign names %0, %1, ... to unnamed values (LLVM-style). */
    void numberValues();

  private:
    Context &context_;
    std::string name_;
    const Type *return_type_;
    std::vector<std::unique_ptr<Argument>> args_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
};

/**
 * Copy @p inst — opcode, type, flags, predicates, intrinsic, access
 * type, alignment, phi/br labels — rewriting each operand through
 * @p remap (operands absent from the map are kept as-is, which is
 * what constants and values that stay in scope want; @p into, when
 * set, re-interns the copy's types and those constants). The one
 * clone primitive shared by Function::clone, the extractor's sequence
 * wrapping, the corpus stitcher, and the module optimizer's
 * patch-back; the copy is unnamed and not yet attached to a block.
 */
std::unique_ptr<Instruction>
cloneInstruction(const Instruction &inst, const ValueRemap &remap,
                 Context *into = nullptr);

} // namespace lpo::ir

#endif // LPO_IR_FUNCTION_H
