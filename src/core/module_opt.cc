#include "core/module_opt.h"

#include <cassert>
#include <cstdio>
#include <map>
#include <set>

#include "core/report.h"
#include "ir/ir_verifier.h"
#include "ir/parser.h"
#include "mca/cost_model.h"
#include "opt/dce.h"
#include "support/failpoint.h"
#include "support/telemetry.h"
#include "support/trace.h"

namespace lpo::core {

using ir::Instruction;
using ir::Value;

namespace {

std::string
fmt1(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

} // namespace

ModuleOptimizer::ModuleOptimizer(llm::LlmClient &client,
                                 ModuleOptOptions options)
    : options_(std::move(options)), pipeline_(client, options_.pipeline)
{
}

bool
ModuleOptimizer::applyRewrite(const extract::SequenceSite &site,
                              const ir::Function &tgt,
                              NameAllocator *names)
{
    // Chaos-test injection: a patch-back refusal must surface as a
    // counted patch failure, leaving the function untouched and valid.
    if (LPO_FAILPOINT("patchback.fail"))
        return false;
    // Defensive pre-checks: extraction and verification already
    // guarantee all of this, so any failure here means the site
    // drifted under us (an earlier patch collapsed two of its outside
    // operands, say) — skip the site rather than splice a rewrite
    // whose argument mapping no longer matches what was verified.
    if (tgt.blocks().size() != 1)
        return false;
    const Instruction *tail = site.insts.back();
    std::vector<Value *> outside =
        extract::Extractor::outsideOperands(site.insts);
    if (outside.size() != tgt.numArgs())
        return false;
    for (unsigned i = 0; i < tgt.numArgs(); ++i)
        if (outside[i]->type() != tgt.arg(i)->type())
            return false;
    if (tgt.returnType() != tail->type())
        return false;
    const Instruction *ret = tgt.entry()->terminator();
    if (!ret || ret->op() != ir::Opcode::Ret || ret->numOperands() != 1)
        return false;

    // The extractor recorded const views into a module the caller
    // handed us as mutable; recover the mutable handles.
    auto *fn = const_cast<ir::Function *>(site.fn);
    auto *block = const_cast<ir::BasicBlock *>(site.block);
    size_t anchor = block->size();
    for (size_t i = 0; i < block->size(); ++i)
        if (block->at(i) == tail) {
            anchor = i;
            break;
        }
    if (anchor == block->size())
        return false;

    // Fresh, deterministic names for the spliced instructions: the
    // per-function counter advances monotonically, skipping anything
    // the input module already uses (seeded once, on the function's
    // first patch), so 1-thread and N-thread runs — and repeated
    // patches into one function — print identically.
    if (!names->seeded) {
        names->seeded = true;
        for (const auto &arg : fn->args())
            names->taken.insert(arg->name());
        for (const auto &bb : fn->blocks())
            for (const auto &inst : bb->instructions())
                names->taken.insert(inst->name());
    }
    auto fresh = [&]() {
        std::string name;
        do
            name = "lpo.p" + std::to_string(names->counter++);
        while (names->taken.count(name));
        names->taken.insert(name);
        return name;
    };

    // Clone the rewrite body at the anchor, remapping its arguments
    // back to the original outside-sequence operands.
    std::map<const Value *, Value *> remap;
    for (unsigned i = 0; i < tgt.numArgs(); ++i)
        remap[tgt.arg(i)] = outside[i];
    for (const auto &inst : tgt.entry()->instructions()) {
        if (inst->isTerminator())
            continue;
        auto copy = ir::cloneInstruction(*inst, remap);
        copy->setName(fresh());
        remap[inst.get()] = block->insert(anchor++, std::move(copy));
    }

    // Redirect every user of the sequence tail to the new result; the
    // dead originals stay behind for the DCE sweep.
    Value *ret_operand = ret->operand(0);
    auto it = remap.find(ret_operand);
    Value *new_result = it == remap.end() ? ret_operand : it->second;
    fn->replaceAllUses(tail, new_result);
    return true;
}

ModuleOptResult
ModuleOptimizer::optimize(ir::Module &module, uint64_t round_seed)
{
    ModuleOptResult result;
    StageTimings timings;
    LPO_TRACE_SPAN(module_span, "optimize-module", "module");
    static const telemetry::Histogram module_hist =
        telemetry::histogram("module.latency_ns");
    telemetry::ScopedTimer module_timer(module_hist);

    std::vector<FunctionSavings> savings;
    extract::Extractor extractor(options_.extractor);
    std::vector<extract::ExtractedSequence> sequences;
    std::vector<const ir::Function *> wrapped;
    {
        LPO_TRACE_SPAN(span, "extract", "phase");
        static const telemetry::Histogram extract_hist =
            telemetry::histogram("phase.extract_ns");
        telemetry::ScopedTimer timer(extract_hist);

        for (const auto &fn : module.functions()) {
            FunctionSavings s;
            s.function = fn->name();
            s.insts_before = fn->instructionCount();
            s.cycles_before = mca::analyzeFunction(*fn).total_cycles;
            result.cycles_before += s.cycles_before;
            savings.push_back(std::move(s));
        }

        // Extract with sites (fresh dedup per module — see the class
        // comment), then shard the unique wrapped sequences through
        // the pipeline (shared verify cache, sequence-order stat
        // folding — see Pipeline).
        sequences = extractor.extractDetailed(module);
        wrapped.reserve(sequences.size());
        for (const auto &seq : sequences)
            wrapped.push_back(seq.wrapped.get());

        timings.extract_ns = timer.stopNanos();
        if (span.active()) {
            span.arg("functions",
                     static_cast<uint64_t>(module.functions().size()));
            span.arg("sequences",
                     static_cast<uint64_t>(sequences.size()));
        }
    }
    // Patch-back state, set up before the pipeline runs: verified
    // improvements are spliced back *while later sequences are still
    // verifying*, from the pipeline's ordered commit chain (see
    // Pipeline::processSequences). Commits arrive strictly in
    // sequence index order — the extraction order — and one at a
    // time, so the rewritten module is byte-identical to the old
    // patch-after-the-fact loop for any thread count. All state is
    // indexed by function position in the module.
    std::map<const ir::Function *, size_t> fn_index;
    for (size_t i = 0; i < module.functions().size(); ++i)
        fn_index[module.functions()[i].get()] = i;
    std::vector<NameAllocator> name_allocators(module.functions().size());
    /** Pre-patch body of every patched function, cloned before its
     *  first splice, for the net-negative rollback below. */
    std::vector<std::unique_ptr<ir::Function>> snapshots(
        module.functions().size());
    /** Functions a contained splice exception may have left
     *  half-mutated; force-validated (and restored) in the sweep. */
    std::vector<char> poisoned(module.functions().size(), 0);
    static const telemetry::Histogram patch_hist =
        telemetry::histogram("phase.patch_ns");

    auto patchSequence = [&](size_t i, const CaseOutcome &outcome) {
        if (!outcome.found())
            return;
        telemetry::ScopedTimer patch_timer(patch_hist);
        auto tgt =
            ir::parseFunction(module.context(), outcome.candidate_text);
        if (!tgt.ok()) {
            result.patch_failures += sequences[i].sites.size();
            timings.patch_ns += patch_timer.stopNanos();
            return;
        }
        for (const extract::SequenceSite &site : sequences[i].sites) {
            size_t index = fn_index.at(site.fn);
            // Contained: a throw out of a single splice (snapshot
            // clone, remap, insert) costs that site, never the run.
            // applyRewrite touches nothing until its pre-checks pass,
            // and the function snapshot is taken first, so the
            // rollback sweep below still has a clean body to restore.
            try {
                if (!snapshots[index])
                    snapshots[index] = site.fn->clone(site.fn->name());
                if (!applyRewrite(site, **tgt,
                                  &name_allocators[index])) {
                    ++result.patch_failures;
                    continue;
                }
            } catch (const std::exception &) {
                ++result.patch_failures;
                // The splice may have died mid-mutation; force the
                // function through the validation sweep even if no
                // other site patched it, so a half-spliced body is
                // caught and restored. (If the snapshot clone itself
                // threw, the function was never touched — skip.)
                if (snapshots[index])
                    poisoned[index] = 1;
                continue;
            }
            ++result.patched_rewrites;
            ++savings[index].patched;
            result.patches.push_back(PatchRecord{
                site.fn->name(), index, site.block->label(),
                static_cast<unsigned>(site.insts.size()), i});
        }
        timings.patch_ns += patch_timer.stopNanos();
    };

    if (options_.step_budget == 0) {
        // No deadline: one batch, exactly the pre-deadline behavior.
        result.outcomes =
            pipeline_.processSequences(wrapped, round_seed, patchSequence);
        for (const CaseOutcome &outcome : result.outcomes)
            result.steps_used += outcome.step_cost;
    } else {
        // Deterministic deadline: process fixed-size waves (the wave
        // size never depends on the thread count) and compare the
        // cumulative step cost against the budget at each boundary.
        // The wave in flight always completes — everything verified
        // so far is patched below — and the remainder is reported
        // Skipped, which patch-back naturally ignores.
        const uint64_t wave =
            options_.deadline_wave ? options_.deadline_wave : 64;
        result.outcomes.resize(wrapped.size());
        size_t done = 0;
        while (done < wrapped.size()) {
            if (result.steps_used >= options_.step_budget) {
                result.deadline_skipped = wrapped.size() - done;
                for (size_t i = done; i < wrapped.size(); ++i) {
                    result.outcomes[i].status = CaseStatus::Skipped;
                    result.outcomes[i].last_feedback =
                        "step-budget deadline reached";
                }
                break;
            }
            size_t count = std::min<size_t>(wave, wrapped.size() - done);
            std::vector<const ir::Function *> batch(
                wrapped.begin() + done, wrapped.begin() + done + count);
            std::vector<CaseOutcome> outcomes = pipeline_.processSequences(
                batch, round_seed,
                [&patchSequence, done](size_t i,
                                       const CaseOutcome &outcome) {
                    patchSequence(done + i, outcome);
                });
            for (size_t i = 0; i < outcomes.size(); ++i) {
                result.steps_used += outcomes[i].step_cost;
                result.outcomes[done + i] = std::move(outcomes[i]);
            }
            done += count;
        }
    }
    result.unique_sequences = sequences.size();
    // Patch-back already streamed from the commit chain above. The
    // "patch" phase therefore no longer exists as its own wall-clock
    // interval — its cost lives inside the pipeline span, attributed
    // via timings.patch_ns (summed commit-callback time) and the
    // phase.patch_ns histogram (one sample per patched sequence).

    LPO_TRACE_SPAN(dce_span, "dce", "phase");
    static const telemetry::Histogram dce_hist =
        telemetry::histogram("phase.dce_ns");
    telemetry::ScopedTimer dce_timer(dce_hist);

    // Sweep the dead originals, re-validate, and re-measure; module
    // order keeps the pass deterministic. A patched function that
    // fails validation (a bug) or costs more mca cycles than before
    // (a size-first rewrite stretching the critical path) is restored
    // from its snapshot and its sites are un-counted.
    std::set<size_t> rolled_back;
    for (size_t i = 0; i < module.functions().size(); ++i) {
        FunctionSavings &fs = savings[i];
        if (fs.patched == 0 && !poisoned[i]) {
            // Untouched function: nothing ran on it, reuse the
            // measurement from the top of the pass.
            fs.insts_after = fs.insts_before;
            fs.cycles_after = fs.cycles_before;
            result.cycles_after += fs.cycles_after;
            continue;
        }
        ir::Function &fn = *module.functions()[i];
        unsigned removed = 0;
        unsigned insts_after;
        double cycles_after;
        if (options_.run_dce) {
            removed = opt::removeDeadInstructions(fn);
            insts_after = fn.instructionCount();
            cycles_after = mca::analyzeFunction(fn).total_cycles;
        } else {
            // No in-place sweep requested; the profit decision AND
            // the reported savings still price the function as-if
            // swept (the dead originals' issue-bound cost would
            // otherwise roll back every patch / report regressions
            // for verified-profitable rewrites).
            auto probe = fn.clone(fn.name());
            opt::removeDeadInstructions(*probe);
            insts_after = probe->instructionCount();
            cycles_after = mca::analyzeFunction(*probe).total_cycles;
        }
        bool valid = ir::isValid(fn);
        if (!valid) {
            ++result.invalid_functions;
            assert(false && "patch-back produced invalid IR");
        }
        if (!valid || cycles_after > fs.cycles_before) {
            module.replaceFunction(i, std::move(snapshots[i]));
            ++result.functions_rolled_back;
            result.patched_rewrites -= fs.patched;
            rolled_back.insert(i);
            fs.patched = 0;
            fs.insts_after = fs.insts_before;
            fs.cycles_after = fs.cycles_before;
            result.cycles_after += fs.cycles_after;
            continue;
        }
        result.dce_removed += removed;
        fs.insts_after = insts_after;
        fs.cycles_after = cycles_after;
        result.cycles_after += fs.cycles_after;
    }
    if (!rolled_back.empty()) {
        std::vector<PatchRecord> kept;
        for (PatchRecord &patch : result.patches)
            if (!rolled_back.count(patch.function_index))
                kept.push_back(std::move(patch));
        result.patches = std::move(kept);
    }
    timings.dce_ns = dce_timer.stopNanos();
    if (dce_span.active())
        dce_span.arg("removed", result.dce_removed);
    dce_span.end();

    result.functions = std::move(savings);
    result.extraction = extractor.stats();
    timings.total_ns = module_timer.stopNanos();
    if (module_span.active()) {
        module_span.arg("patched", result.patched_rewrites);
        module_span.arg("sequences",
                        static_cast<uint64_t>(result.outcomes.size()));
    }
    pipeline_.addStageTimings(timings);
    // Make this run's verdicts and learned rewrites durable before the
    // stats snapshot: a kill -9 between modules then loses nothing,
    // and the reported store counters include this run's flush.
    pipeline_.flushStore();
    result.pipeline = pipeline_.stats();
    return result;
}

std::string
savingsTable(const ModuleOptResult &result)
{
    TextTable table({"function", "insts", "insts'", "cycles", "cycles'",
                     "saved", "patched"});
    double saved_total = 0.0;
    unsigned insts_before = 0, insts_after = 0;
    for (const FunctionSavings &fs : result.functions) {
        insts_before += fs.insts_before;
        insts_after += fs.insts_after;
        saved_total += fs.cycles_before - fs.cycles_after;
        if (fs.patched == 0)
            continue;
        table.addRow({fs.function, std::to_string(fs.insts_before),
                      std::to_string(fs.insts_after),
                      fmt1(fs.cycles_before), fmt1(fs.cycles_after),
                      fmt1(fs.cycles_before - fs.cycles_after),
                      std::to_string(fs.patched)});
    }
    table.addRow({"TOTAL (" + std::to_string(result.functions.size()) +
                      " functions)",
                  std::to_string(insts_before),
                  std::to_string(insts_after), fmt1(result.cycles_before),
                  fmt1(result.cycles_after), fmt1(saved_total),
                  std::to_string(result.patched_rewrites)});
    return table.render();
}

} // namespace lpo::core
