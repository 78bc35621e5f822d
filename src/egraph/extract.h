/**
 * @file
 * Deterministic cost-based extraction from an e-graph.
 *
 * Selects, for every e-class reachable from the root, the cheapest
 * representative term under the mca cost model — minimizing
 * CostSummary::total_cycles, tie-breaking on instruction count and
 * then on a canonical node ordering so the result is bit-identical
 * across runs — and materializes the choice as an ir::Function with
 * the signature of the original sequence. Shared subterms are emitted
 * once (materialization memoizes per class).
 */
#ifndef LPO_EGRAPH_EXTRACT_H
#define LPO_EGRAPH_EXTRACT_H

#include <memory>
#include <string>
#include <vector>

#include "egraph/egraph.h"
#include "mca/cost_model.h"

namespace lpo::egraph {

/**
 * A function's body as a flat word sequence: per instruction its
 * opcode payload and operands (argument index, interned constant, or
 * the position of an earlier instruction), then the returned operand.
 * Two functions with equal keys are the same function up to value
 * names. An empty key matches nothing.
 */
using TermKey = std::vector<uint64_t>;

/** Fill @p key with @p fn's term key (empty when @p fn is not a
 *  single block of pure instructions ending in ret). */
void functionKey(const ir::Function &fn, TermKey &key);

/**
 * Extraction split into its two halves, on buffers that are kept
 * between runs: run() relaxes every class's best representative,
 * then termKey() and materialize() read the root's chosen term. A
 * caller that already holds a function with the same term key can
 * skip materialize().
 */
class Extraction
{
  public:
    /**
     * Choose every class's cheapest node in @p graph. Returns false
     * when @p root has no finite-cost term (cannot happen for a class
     * built from a real function). The graph must not change before
     * the term is read.
     */
    bool run(const EGraph &graph, ClassId root,
             const mca::CpuModel &cpu = mca::btver2());

    /** The chosen term's key: exactly functionKey(*materialize(...)). */
    void termKey(TermKey &key);

    /**
     * Build the chosen term as a function with @p signature's name,
     * return type and arguments. Returns nullptr when the term does
     * not fit the signature (an argument index out of range or a
     * return type mismatch).
     */
    std::unique_ptr<ir::Function> materialize(const ir::Function &signature);

  private:
    struct Best
    {
        bool valid = false;
        mca::IncrementalCost cost;
        double total_cycles = 0.0;
        /** Index of the chosen node in its class's node list. */
        uint32_t node = 0;
    };

    const ENode &chosen(ClassId id) const;
    /** nodeOrderKey of node @p index of class @p id, rendered at most
     *  once per run. */
    const std::string &orderKey(ClassId id, uint32_t index);
    uint64_t keyTerm(ClassId id, TermKey &key);
    ir::Value *emit(ClassId id, ir::Function &out, ir::BasicBlock &block);

    const EGraph *graph_ = nullptr;
    ClassId root_ = 0;
    std::vector<ClassId> classes_;
    std::vector<Best> best_;
    /** First flat node index of each canonical class. */
    std::vector<uint32_t> first_node_;
    std::vector<double> latency_;
    std::vector<std::string> keys_;
    std::vector<uint32_t> key_run_;
    uint32_t run_ = 0;
    /** Per class: its emitted value (materialize) or its operand word
     *  in the term key (0 until keyed). */
    std::vector<ir::Value *> emitted_;
    std::vector<uint64_t> words_;
    /** Instructions emitted or keyed so far (names e0, e1, ...). */
    unsigned next_name_ = 0;
    bool failed_ = false;
};

/**
 * Extract the cheapest function computing @p root.
 *
 * @p signature supplies the name, return type, and argument list of
 * the output (the original extracted sequence). Returns nullptr when
 * @p root has no finite-cost term (cannot happen for a class built
 * from a real function) or when its best term's type does not match
 * the signature's return type.
 */
std::unique_ptr<ir::Function>
extractFunction(const EGraph &graph, ClassId root,
                const ir::Function &signature,
                const mca::CpuModel &cpu = mca::btver2());

} // namespace lpo::egraph

#endif // LPO_EGRAPH_EXTRACT_H
