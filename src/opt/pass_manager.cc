#include "opt/pass_manager.h"

#include "opt/instcombine.h"

namespace lpo::opt {

bool
PassManager::run(ir::Function &fn, bool fixpoint) const
{
    bool any = false;
    for (unsigned round = 0; round < (fixpoint ? 16u : 1u); ++round) {
        bool changed = false;
        for (const FunctionPass &pass : passes_)
            changed |= pass.run(fn);
        any |= changed;
        if (!changed)
            break;
    }
    return any;
}

PassManager
PassManager::standardPipeline()
{
    PassManager pm;
    pm.addPass({"instcombine",
                [](ir::Function &fn) { return runInstCombine(fn); }});
    return pm;
}

} // namespace lpo::opt
