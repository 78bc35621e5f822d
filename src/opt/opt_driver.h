/**
 * @file
 * The "opt" front end: text in, optimized text (or error message) out.
 *
 * This is the component LPO invokes at step 3 of the workflow: it
 * syntax-checks the LLM candidate, and canonicalizes / further
 * optimizes syntactically valid functions with the -O3-style pipeline
 * (paper §3.3, "Preprocessing with opt").
 */
#ifndef LPO_OPT_OPT_DRIVER_H
#define LPO_OPT_OPT_DRIVER_H

#include <memory>
#include <string>

#include "ir/module.h"

namespace lpo::opt {

/** Result of running the opt driver on a candidate text. */
struct OptResult
{
    bool failed = false;
    /** opt-style error message (only when failed). */
    std::string error_message;
    /** The optimized function (only when !failed). */
    std::unique_ptr<ir::Function> function;
    /** Whether the pipeline changed the input at all. */
    bool changed = false;
};

/** Parse @p text as a single function and run the standard pipeline. */
OptResult runOpt(ir::Context &context, const std::string &text);

/**
 * Run the standard pipeline on @p fn in place (built once per
 * process); true if a pass reported a change.
 */
bool runStandardPipeline(ir::Function &fn);

/** Run the standard pipeline on an already-parsed function (clones). */
std::unique_ptr<ir::Function> optimizeFunction(const ir::Function &fn);

} // namespace lpo::opt

#endif // LPO_OPT_OPT_DRIVER_H
