/**
 * @file
 * A minimal pass manager composing function passes into pipelines.
 */
#ifndef LPO_OPT_PASS_MANAGER_H
#define LPO_OPT_PASS_MANAGER_H

#include <functional>
#include <string>
#include <vector>

#include "ir/function.h"

namespace lpo::opt {

/** A named function transformation; returns true if it changed IR. */
struct FunctionPass
{
    std::string name;
    std::function<bool(ir::Function &)> run;
};

/** Runs a sequence of passes, optionally to a fixpoint. */
class PassManager
{
  public:
    void addPass(FunctionPass pass) { passes_.push_back(std::move(pass)); }

    /**
     * Run all passes over @p fn.
     * @param fixpoint repeat the pipeline until nothing changes
     *        (bounded at 16 rounds).
     * @returns true if any pass changed the function.
     */
    bool run(ir::Function &fn, bool fixpoint = true) const;

    /**
     * The standard -O3-style pipeline: instcombine, which sweeps dead
     * code after every round of its own, so a dce pass after it would
     * never find any.
     */
    static PassManager standardPipeline();

  private:
    std::vector<FunctionPass> passes_;
};

} // namespace lpo::opt

#endif // LPO_OPT_PASS_MANAGER_H
