#include "verify/refine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "interp/exec_plan.h"
#include "ir/printer.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/task_graph.h"
#include "support/trace.h"
#include "verify/cache.h"
#include "verify/encoder.h"

namespace lpo::verify {

using interp::ExecFrame;
using interp::ExecPlan;
using interp::ExecutionInput;
using interp::ExecutionResult;
using interp::LaneValue;
using interp::MemoryObject;
using interp::PlanResult;
using interp::RtValue;
using ir::Type;
using smt::CircuitBuilder;
using smt::SatResult;
using smt::SatSolver;

namespace {

/** Byte size of the object backing each pointer argument. */
constexpr unsigned kMemoryObjectBytes = 64;

unsigned
laneCount(const Type *type)
{
    return type->isVector() ? type->lanes() : 1;
}

bool
signaturesMatch(const ir::Function &src, const ir::Function &tgt)
{
    if (src.returnType() != tgt.returnType() ||
        src.numArgs() != tgt.numArgs())
        return false;
    for (unsigned i = 0; i < src.numArgs(); ++i)
        if (src.arg(i)->type() != tgt.arg(i)->type())
            return false;
    return true;
}

/**
 * Why one concrete (source, target) execution pair violates
 * refinement, or null when the target refines the source. Null lane
 * arrays mean "no return value". Both the sweep (over in-frame plan
 * results) and the counterexample renderer call this one comparison.
 */
const char *
refinementViolation(bool src_ub, bool tgt_ub, const LaneValue *src_ret,
                    const LaneValue *tgt_ret, size_t lanes)
{
    if (src_ub)
        return nullptr; // source UB: anything goes
    if (tgt_ub)
        return "target triggers UB where source is defined";
    if (!src_ret || !tgt_ret)
        return nullptr;
    for (size_t lane = 0; lane < lanes; ++lane) {
        const LaneValue &s = src_ret[lane];
        const LaneValue &t = tgt_ret[lane];
        if (s.poison)
            continue; // target may refine poison to anything
        if (t.poison)
            return "target is more poisonous than source";
        if (s.is_fp) {
            if (std::isnan(s.fp) && std::isnan(t.fp))
                continue;
            // Compare bit patterns so -0.0 != +0.0 is caught.
            uint64_t sb, tb;
            static_assert(sizeof(sb) == sizeof(s.fp));
            std::memcpy(&sb, &s.fp, 8);
            std::memcpy(&tb, &t.fp, 8);
            if (sb != tb)
                return "value mismatch";
        } else if (s.bits.zext() != t.bits.zext()) {
            return "value mismatch";
        }
    }
    return nullptr;
}

/** Memory objects needed by pointer arguments of @p fn. */
unsigned
pointerArgCount(const ir::Function &fn)
{
    unsigned count = 0;
    for (const auto &arg : fn.args())
        if (arg->type()->isPtr())
            ++count;
    return count;
}

/**
 * Re-run the single violating @p input through the interpreter and
 * render the Alive2-style counterexample into @p result. Shared by
 * both backends and by the cache's hit path, so a cached Incorrect
 * verdict reproduces the uncached output byte for byte.
 */
void
fillCounterexample(RefinementResult &result, const ir::Function &src,
                   const ir::Function &tgt, ExecutionInput input)
{
    ExecutionResult src_run = interp::execute(src, input);
    ExecutionResult tgt_run = interp::execute(tgt, input);
    result.verdict = Verdict::Incorrect;
    Counterexample cex;
    cex.source_value = interp::describeResult(src_run);
    cex.target_value = interp::describeResult(tgt_run);
    const char *why = refinementViolation(
        src_run.ub, tgt_run.ub,
        src_run.ret ? src_run.ret->lanes.data() : nullptr,
        tgt_run.ret ? tgt_run.ret->lanes.data() : nullptr,
        src_run.ret ? src_run.ret->lanes.size() : 0);
    // Defensive fallback: the model disagrees with the interpreter.
    result.detail = why ? why : "value mismatch";
    cex.input = std::move(input);
    result.counterexample = std::move(cex);
}

/** Copy the cache-safe slice of @p result into @p cached. */
void
recordVerdict(CachedVerdict *cached, const RefinementResult &result)
{
    cached->verdict = result.verdict;
    cached->backend = result.backend;
    cached->detail = result.detail;
}

// ---------------------------------------------------------------------
// SAT backend
// ---------------------------------------------------------------------

/** Bit-blasting latency (circuit construction + CNF emission). */
telemetry::Histogram
encodeHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("verify.encode_ns");
    return h;
}

/** Per-solve latency (one budget-ladder tier). */
telemetry::Histogram
solveHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("verify.solve_ns");
    return h;
}

/** Cache-key latency: the canonical prints of both functions. */
telemetry::Histogram
keyHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("verify.key_ns");
    return h;
}

/** Conflicts spent by one solve call (one budget-ladder tier). */
telemetry::Histogram
conflictsPerSolveHistogram()
{
    static const telemetry::Histogram h =
        telemetry::histogram("sat.conflicts_per_solve");
    return h;
}

/**
 * The per-query budget schedule: the escalation ladder when
 * configured, otherwise the legacy single-shot budget. Each entry is
 * the ADDITIONAL conflicts the next solve call may spend; re-solving
 * the same solver keeps its learnt clauses and phase saving, so an
 * escalated attempt resumes the proof instead of restarting it.
 */
std::vector<uint64_t>
budgetLadder(const RefineOptions &options)
{
    if (!options.budget_tiers.empty())
        return options.budget_tiers;
    return {options.conflict_budget};
}

RefinementResult checkWithTesting(const ir::Function &src,
                                  const ir::Function &tgt,
                                  const RefineOptions &options,
                                  CachedVerdict *cached);

/**
 * Final rung of the ladder: a SAT query whose last tier was exhausted
 * degrades to the bounded concrete backend. A counterexample is sound
 * (concrete inputs don't lie), and an exhaustive sweep covering the
 * whole input space is a proof — both keep their verdicts. A sampled
 * sweep that merely found nothing is NOT a proof: it becomes
 * Verdict::Degraded, which the pipeline never patches.
 */
RefinementResult
degradeToTesting(const ir::Function &src, const ir::Function &tgt,
                 const RefineOptions &options, CachedVerdict *cached,
                 const VerifyWork &sat_work)
{
    RefinementResult result = checkWithTesting(src, tgt, options, cached);
    result.work = sat_work;
    ++result.work.concrete_fallbacks;
    if (result.verdict != Verdict::Correct)
        return result; // counterexample: sound, stands as-is
    if (result.backend == "exhaustive") {
        ++result.work.exhaustive_rescues;
        result.detail += " (after SAT budget ladder exhausted)";
    } else {
        result.verdict = Verdict::Degraded;
        result.detail = "SAT budget ladder exhausted; survived " +
                        result.detail + " (not a proof)";
        ++result.work.degraded;
    }
    recordVerdict(cached, result);
    return result;
}

/**
 * The solver, circuit builder and term DAG one thread's SAT queries
 * reuse (see DESIGN.md, "Verifier workspace"). Each query resets all
 * three first, so it runs exactly as on new ones, while every buffer
 * keeps the capacity of the largest query the thread has seen.
 */
struct SatWorkspace
{
    SatSolver solver;
    CircuitBuilder builder{solver};
    TermWorkspace terms;
    bool in_use = false;
};

/**
 * The calling thread's workspace, reset and held for one query. Nothing
 * may re-enter it while held (asserted): checkWithSat releases it
 * before anything that can run other work on this thread, such as the
 * concrete fallback's task scope.
 */
class WorkspaceClaim
{
  public:
    WorkspaceClaim() : ws_(workspace())
    {
        assert(!ws_.in_use && "the SAT workspace was re-entered");
        ws_.in_use = true;
        ws_.solver.reset();
        ws_.builder.reset();
    }
    ~WorkspaceClaim() { ws_.in_use = false; }
    WorkspaceClaim(const WorkspaceClaim &) = delete;
    WorkspaceClaim &operator=(const WorkspaceClaim &) = delete;

    SatSolver &solver() { return ws_.solver; }
    CircuitBuilder &builder() { return ws_.builder; }
    /** Reset by the encoder, which builds the query in it. */
    TermWorkspace &terms() { return ws_.terms; }

  private:
    static SatWorkspace &workspace()
    {
        thread_local SatWorkspace ws;
        return ws;
    }

    SatWorkspace &ws_;
};

RefinementResult
checkWithSat(const ir::Function &src, const ir::Function &tgt,
             const RefineOptions &options, CachedVerdict *cached)
{
    RefinementResult result;
    result.backend = "sat";
    VerifyWork &work = result.work;
    SatResult sat = SatResult::Unknown;
    ExecutionInput input; // the model's violating input, after Sat
    {
        WorkspaceClaim claim;
        SatSolver &solver = claim.solver();
        CircuitBuilder &builder = claim.builder();
        solver.setInterrupt(options.interrupt, options.scope_interrupt);

        std::vector<ValueEnc> args;
        {
            LPO_TRACE_SPAN(span, "encode", "sat");
            telemetry::ScopedTimer timer(encodeHistogram());
            QueryEncoding encoding =
                encodeEncodableQuery(claim.terms(), builder, src, tgt,
                                     &args);
            assert(encoding != QueryEncoding::Unencodable &&
                   "caller checked canEncode");
            work.encode_ns = timer.stopNanos();
            work.sat_queries = 1;
            work.term_decided = encoding == QueryEncoding::DecidedByTerms;
        }
        work.circuit_nodes = builder.numNodes();
        work.circuit_emitted = builder.numEmitted();

        const std::vector<uint64_t> tiers = budgetLadder(options);
        for (uint64_t tier_budget : tiers) {
            if (work.solves > 0)
                ++work.escalations;
            uint64_t conflicts_before = solver.conflicts();
            {
                LPO_TRACE_SPAN(span, "solve", "sat");
                telemetry::ScopedTimer timer(solveHistogram());
                sat = solver.solve(tier_budget);
                work.solve_ns += timer.stopNanos();
                if (span.active())
                    span.arg("conflicts",
                             solver.conflicts() - conflicts_before);
            }
            conflictsPerSolveHistogram().record(solver.conflicts() -
                                                conflicts_before);
            ++work.solves;
            if (sat != SatResult::Unknown || options.interrupted())
                break;
        }
        // The solver's lifetime counters already span every tier.
        work.decisions = solver.decisions();
        work.conflicts = solver.conflicts();
        work.propagations = solver.propagations();
        work.restarts = solver.restarts();

        if (sat == SatResult::Sat) {
            // Extract the violating input from the model, recording the
            // raw lane words so a cache hit can rebuild the identical
            // input.
            cached->replay = CachedVerdict::Replay::SatArgs;
            for (unsigned i = 0; i < src.numArgs(); ++i) {
                RtValue value;
                for (const LaneEnc &lane : args[i]) {
                    APInt word = builder.modelBV(lane.bits);
                    cached->arg_lane_words.push_back(word.zext());
                    value.lanes.push_back(LaneValue::ofInt(word));
                }
                input.args.push_back(value);
            }
        }
    }
    if (sat == SatResult::Unknown && options.interrupted()) {
        // The caller gave up on this query: answer at once, without
        // escalating or falling back. checkRefinement keeps the
        // answer out of the cache.
        result.verdict = Verdict::Timeout;
        result.detail = "SAT solve interrupted";
        return result;
    }
    if (sat == SatResult::Unknown) {
        if (!options.budget_tiers.empty())
            return degradeToTesting(src, tgt, options, cached, work);
        result.verdict = Verdict::Timeout;
        result.detail = "SAT conflict budget exhausted";
        recordVerdict(cached, result);
        return result;
    }
    if (sat == SatResult::Unsat) {
        result.verdict = Verdict::Correct;
        result.detail = "proved by bit-blasting";
        recordVerdict(cached, result);
        return result;
    }
    fillCounterexample(result, src, tgt, std::move(input));
    recordVerdict(cached, result);
    return result;
}

// ---------------------------------------------------------------------
// Concrete-testing backend
// ---------------------------------------------------------------------

double
specialDouble(unsigned index)
{
    static const double values[] = {
        0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 255.0,
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
    };
    return values[index % (sizeof(values) / sizeof(values[0]))];
}

/** Total bits of integer input space (UINT_MAX if not enumerable). */
unsigned
inputSpaceBits(const ir::Function &fn)
{
    unsigned bits = 0;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        if (type->isPtr() || type->isFloat())
            return std::numeric_limits<unsigned>::max();
        if (type->isVector() && type->scalarType()->isFloat())
            return std::numeric_limits<unsigned>::max();
        bits += laneCount(type) * type->scalarType()->intWidth();
    }
    return bits;
}

/** Build an input by decoding @p index over the integer input space. */
ExecutionInput
decodeExhaustive(const ir::Function &fn, uint64_t index)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        unsigned lanes = laneCount(type);
        unsigned width = type->scalarType()->intWidth();
        RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            uint64_t mask = width == 64 ? ~uint64_t(0)
                                        : ((uint64_t(1) << width) - 1);
            value.lanes.push_back(
                LaneValue::ofInt(APInt(width, index & mask)));
            index >>= width;
        }
        input.args.push_back(value);
    }
    return input;
}

/** Special integer patterns per distinct argument width, built once
 *  per sweep instead of once per sampled lane. */
using SpecialPatternCache = std::map<unsigned, std::vector<uint64_t>>;

SpecialPatternCache
buildSpecialPatterns(const ir::Function &fn)
{
    SpecialPatternCache cache;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        if (type->isPtr() || type->scalarType()->isFloat())
            continue;
        unsigned width = type->scalarType()->intWidth();
        if (!cache.count(width))
            cache.emplace(width, specialPatterns(width));
    }
    return cache;
}

/** Build a randomized input, mixing special values generously. */
ExecutionInput
randomInput(const ir::Function &fn, Rng &rng, unsigned object_bytes,
            const SpecialPatternCache &special_cache)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const Type *type = arg->type();
        if (type->isPtr()) {
            int object_id = static_cast<int>(input.memory.size());
            MemoryObject object;
            object.bytes.resize(object_bytes);
            for (uint8_t &byte : object.bytes)
                byte = static_cast<uint8_t>(rng.next());
            input.memory.push_back(std::move(object));
            input.args.push_back(
                RtValue{{LaneValue::ofPtr(object_id, 0)}});
            continue;
        }
        unsigned lanes = laneCount(type);
        RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            if (type->scalarType()->isFloat()) {
                if (rng.chance(0.5)) {
                    value.lanes.push_back(LaneValue::ofFP(
                        specialDouble(static_cast<unsigned>(rng.next()))));
                } else {
                    // Random finite double from a random bit pattern,
                    // biased toward small magnitudes.
                    double d = (rng.nextDouble() - 0.5) * 1024.0;
                    value.lanes.push_back(LaneValue::ofFP(d));
                }
                continue;
            }
            unsigned width = type->scalarType()->intWidth();
            uint64_t bits;
            if (rng.chance(0.5)) {
                const auto &specials = special_cache.at(width);
                bits = specials[rng.nextBelow(specials.size())];
            } else {
                bits = rng.next();
            }
            value.lanes.push_back(LaneValue::ofInt(APInt(width, bits)));
        }
        input.args.push_back(value);
    }
    return input;
}

/**
 * The sampled input for sweep position @p index. A pure function of
 * (seed, index) so the parallel sweep generates identical inputs
 * regardless of how indices are distributed over threads.
 */
ExecutionInput
sampledInputAt(const ir::Function &fn, const RefineOptions &options,
               uint64_t index, const SpecialPatternCache &special_cache)
{
    Rng rng(options.seed ^ ((index + 1) * 0x9e3779b97f4a7c15ull));
    return randomInput(fn, rng, kMemoryObjectBytes, special_cache);
}

constexpr uint64_t kNoViolation = std::numeric_limits<uint64_t>::max();

/** Lower @p candidate into @p lowest (atomic min). */
void
recordViolation(std::atomic<uint64_t> &lowest, uint64_t candidate)
{
    uint64_t current = lowest.load(std::memory_order_relaxed);
    while (candidate < current &&
           !lowest.compare_exchange_weak(current, candidate))
        ;
}

RefinementResult
checkWithTesting(const ir::Function &src, const ir::Function &tgt,
                 const RefineOptions &options, CachedVerdict *cached)
{
    RefinementResult result;

    // Compile both functions ONCE; the sweep then runs each input
    // through the flat plans with a per-worker reusable frame.
    const ExecPlan src_plan = ExecPlan::compile(src);
    const ExecPlan tgt_plan = ExecPlan::compile(tgt);

    unsigned bits = inputSpaceBits(src);
    const bool exhaustive = bits <= options.exhaustive_bit_limit;
    const uint64_t total =
        exhaustive ? uint64_t(1) << bits : options.sample_count;
    result.backend = exhaustive ? "exhaustive" : "sampled";

    SpecialPatternCache special_cache =
        exhaustive ? SpecialPatternCache{} : buildSpecialPatterns(src);

    // The sweep runs one task per chunk. first_bad converges on the
    // LOWEST violating input index, so the reported counterexample is
    // independent of thread count and scheduling.
    std::atomic<uint64_t> first_bad{kNoViolation};
    const uint64_t chunk = exhaustive ? 1024 : 256;
    auto sweep = [&](uint64_t lo, uint64_t hi) {
        ExecFrame src_frame = src_plan.makeFrame();
        ExecFrame tgt_frame = tgt_plan.makeFrame();
        for (uint64_t index = lo; index < hi; ++index) {
            // A violation at a lower index makes the rest of this
            // chunk (and every later chunk) irrelevant.
            if (first_bad.load(std::memory_order_relaxed) <= index)
                return;
            PlanResult s, t;
            if (exhaustive) {
                s = src_plan.runExhaustive(src_frame, index);
                t = tgt_plan.runExhaustive(tgt_frame, index);
            } else {
                ExecutionInput input =
                    sampledInputAt(src, options, index, special_cache);
                s = src_plan.run(src_frame, input);
                t = tgt_plan.run(tgt_frame, input);
            }
            if (refinementViolation(s.ub, t.ub,
                                    s.has_ret ? s.ret : nullptr,
                                    t.has_ret ? t.ret : nullptr,
                                    s.ret_lanes)) {
                recordViolation(first_bad, index);
                return;
            }
        }
    };
    // Sweeps that fit in one chunk gain nothing from workers, so they
    // get a one-thread scope (no threads spawned; its single task runs
    // on this thread). A one-thread scope runs chunks in submission
    // order, i.e. in increasing index order.
    TaskScope scope(total > chunk ? options.num_threads : 1);
    for (uint64_t lo = 0; lo < total; lo += chunk) {
        uint64_t hi = std::min(total, lo + chunk);
        scope.submit([&sweep, lo, hi] { sweep(lo, hi); });
    }
    scope.wait();

    uint64_t bad = first_bad.load();
    if (bad == kNoViolation) {
        result.verdict = Verdict::Correct;
        result.detail =
            exhaustive
                ? "exhaustive over " + std::to_string(total) + " inputs"
                : "bounded testing over " + std::to_string(total) +
                      " samples";
        recordVerdict(cached, result);
        return result;
    }

    // Re-run the single failing input to render the counterexample;
    // results are described exactly once, and the input is MOVED into
    // the counterexample rather than copied. The cache records only
    // the violating index — the input is a pure function of it.
    cached->replay = CachedVerdict::Replay::TestingIndex;
    cached->index = bad;
    ExecutionInput input =
        exhaustive ? decodeExhaustive(src, bad)
                   : sampledInputAt(src, options, bad, special_cache);
    fillCounterexample(result, src, tgt, std::move(input));
    recordVerdict(cached, result);
    return result;
}

// ---------------------------------------------------------------------
// Backend dispatch, cache key, and cache-hit re-derivation
// ---------------------------------------------------------------------

/** The backend-selection logic shared by cached and uncached paths. */
RefinementResult
dispatchBackends(const ir::Function &src, const ir::Function &tgt,
                 const RefineOptions &options, CachedVerdict *cached)
{
    if (usesSatBackend(src, tgt))
        return checkWithSat(src, tgt, options, cached);
    return checkWithTesting(src, tgt, options, cached);
}

/**
 * The cache key: a version tag, the canonical alpha-renamed prints of
 * the pair, and verifyOptionsKey.
 */
std::string
cacheKey(const ir::Function &src, const ir::Function &tgt,
         const RefineOptions &options)
{
    std::string key = "v1\x01";
    key += ir::printFunctionCanonical(src);
    key += '\x02';
    key += ir::printFunctionCanonical(tgt);
    key += '\x03';
    key += verifyOptionsKey(options);
    return key;
}

/** Rebuild a full RefinementResult from a cache hit. */
RefinementResult
rederiveFromCache(const ir::Function &src, const ir::Function &tgt,
                  const RefineOptions &options, const CachedVerdict &cached)
{
    RefinementResult result;
    result.verdict = cached.verdict;
    result.backend = cached.backend;
    result.detail = cached.detail;
    if (cached.replay == CachedVerdict::Replay::None)
        return result;

    ExecutionInput input;
    if (cached.replay == CachedVerdict::Replay::TestingIndex) {
        unsigned bits = inputSpaceBits(src);
        if (bits <= options.exhaustive_bit_limit) {
            input = decodeExhaustive(src, cached.index);
        } else {
            SpecialPatternCache special_cache = buildSpecialPatterns(src);
            input = sampledInputAt(src, options, cached.index,
                                   special_cache);
        }
    } else { // SatArgs: lane-major words over the shared signature
        size_t word = 0;
        for (unsigned i = 0; i < src.numArgs(); ++i) {
            const Type *type = src.arg(i)->type();
            unsigned lanes = laneCount(type);
            unsigned width = type->scalarType()->intWidth();
            RtValue value;
            for (unsigned lane = 0; lane < lanes; ++lane) {
                assert(word < cached.arg_lane_words.size());
                value.lanes.push_back(LaneValue::ofInt(
                    APInt(width, cached.arg_lane_words[word++])));
            }
            input.args.push_back(value);
        }
    }
    fillCounterexample(result, src, tgt, std::move(input));
    return result;
}

} // namespace

std::string
verifyOptionsKey(const RefineOptions &options)
{
    std::string key = std::to_string(options.conflict_budget);
    key += ',';
    key += std::to_string(options.exhaustive_bit_limit);
    key += ',';
    key += std::to_string(options.sample_count);
    key += ',';
    // Former per-option slots (pointer-argument object size, encoder
    // selection), kept as literals so keys (and the persisted verify
    // stores they index) stay byte-identical.
    key += std::to_string(kMemoryObjectBytes);
    key += ',';
    key += std::to_string(options.seed);
    key += ",1";
    // The escalation ladder changes which verdict a query can reach
    // (Timeout vs Correct-at-a-higher-tier vs Degraded), so the tier
    // list is part of the key. An empty ladder leaves the key in the
    // pre-ladder format.
    for (uint64_t tier : options.budget_tiers) {
        key += ",t";
        key += std::to_string(tier);
    }
    return key;
}

std::string
RefinementResult::feedbackMessage(const ir::Function &src) const
{
    switch (verdict) {
      case Verdict::Correct:
        return "Transformation seems to be correct!";
      case Verdict::BadSignature:
        return "ERROR: program doesn't type check!\n"
               "The proposed function must keep the original signature.";
      case Verdict::Unsupported:
        return "ERROR: unsupported instructions for verification";
      case Verdict::Timeout:
        return "ERROR: verification timed out";
      case Verdict::Degraded:
        return "ERROR: verification degraded: " + detail;
      case Verdict::Incorrect:
        break;
    }
    std::string out = "ERROR: " + detail + "\n";
    if (counterexample) {
        out += "\nExample:\n";
        out += interp::describeInput(src, counterexample->input);
        out += "Source value: " + counterexample->source_value + "\n";
        out += "Target value: " + counterexample->target_value + "\n";
    }
    return out;
}

bool
usesSatBackend(const ir::Function &src, const ir::Function &tgt)
{
    // Vector-heavy circuits can be large; fall back to testing when
    // the total bit count is excessive.
    return canEncode(src) && canEncode(tgt) && inputSpaceBits(src) <= 256;
}

std::vector<uint64_t>
specialPatterns(unsigned width)
{
    uint64_t ones = APInt::allOnes(width).zext();
    uint64_t int_min = uint64_t(1) << (width - 1);
    std::vector<uint64_t> candidates = {
        0, 1, 2, 3,
        ones,         // -1
        ones - 1,     // -2 (0 at width 1; masked and deduped below)
        int_min,      // INT_MIN (1 at width 1)
        int_min - 1,  // INT_MAX (0 at width 1)
    };
    if (width > 3) {
        candidates.push_back(ones >> 1); // INT_MAX again; deduped
        candidates.push_back(uint64_t(1) << (width / 2));
    }
    // Narrow widths degenerate several entries onto each other (at
    // width 1 everything collapses into {0, 1}); mask each candidate
    // into range and keep the first occurrence so the list is
    // well-defined and duplicate-free at every width.
    std::vector<uint64_t> out;
    for (uint64_t value : candidates) {
        value &= ones;
        bool seen = false;
        for (uint64_t prior : out)
            seen = seen || prior == value;
        if (!seen)
            out.push_back(value);
    }
    return out;
}

RefinementResult
checkRefinement(const ir::Function &src, const ir::Function &tgt,
                const RefineOptions &options)
{
    RefinementResult result;
    if (!signaturesMatch(src, tgt)) {
        result.verdict = Verdict::BadSignature;
        result.detail = "source and target signatures differ";
        return result;
    }
    if (src.returnType()->isVoid()) {
        result.verdict = Verdict::Unsupported;
        result.detail = "void functions are not checked";
        return result;
    }
    // Encodable functions never take pointers, so this check is
    // equivalent to the pre-dispatch position it used to occupy.
    if (pointerArgCount(src) != pointerArgCount(tgt)) {
        result.verdict = Verdict::BadSignature;
        result.detail = "pointer argument mismatch";
        return result;
    }

    if (!options.cache) {
        CachedVerdict scratch;
        return dispatchBackends(src, tgt, options, &scratch);
    }
    // Cache path: key on the alpha-renamed pair + verdict-affecting
    // options; compute at most once per key, re-derive the
    // counterexample on hits (see verify/cache.h).
    std::string key;
    {
        telemetry::ScopedTimer timer(keyHistogram());
        key = cacheKey(src, tgt, options);
    }
    return options.cache->lookupOrCompute(
        key,
        [&] {
            VerifyCache::Computed computed;
            computed.result =
                dispatchBackends(src, tgt, options, &computed.cached);
            // An answer reached after the caller raised its interrupt
            // may be a cut-short Timeout; never remember it.
            computed.cacheable = !options.interrupted();
            return computed;
        },
        [&](const CachedVerdict &cached) {
            return rederiveFromCache(src, tgt, options, cached);
        });
}

} // namespace lpo::verify
