#include "opt/opt_driver.h"

#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "opt/pass_manager.h"

namespace lpo::opt {

bool
runStandardPipeline(ir::Function &fn)
{
    static const PassManager pipeline = PassManager::standardPipeline();
    return pipeline.run(fn);
}

OptResult
runOpt(ir::Context &context, const std::string &text)
{
    OptResult result;
    auto parsed = ir::parseFunction(context, text);
    if (!parsed) {
        result.failed = true;
        result.error_message = "error: " + parsed.error().toString();
        return result;
    }
    result.function = parsed.take();
    auto issues = ir::verifyFunction(*result.function);
    if (!issues.empty()) {
        result.failed = true;
        result.error_message = "error: " + issues.front().message;
        result.function.reset();
        return result;
    }
    result.changed = runStandardPipeline(*result.function);
    result.function->numberValues();
    return result;
}

std::unique_ptr<ir::Function>
optimizeFunction(const ir::Function &fn)
{
    std::unique_ptr<ir::Function> copy = fn.clone(fn.name());
    runStandardPipeline(*copy);
    copy->numberValues();
    return copy;
}

} // namespace lpo::opt
