/**
 * @file
 * `serve-mixed`: open-loop arrivals at fixed offered rates into an
 * in-process serve::Server over a spool, with its store warmed before
 * timing. One load-generator thread submits on a seeded Poisson
 * schedule and times every request from when it was due.
 *
 * Requests are a seeded mix: most repeat warm-up modules (catalog
 * replay plus verify-cache reads), a fixed share is novel (SAT proofs
 * plus journal appends and fsync). Modules are drawn from
 * corpus::CorpusGenerator::largeModule, keeping only draws with no
 * block holding two `mul`s: stacked constant multiplies are the
 * multi-second SAT tail that module-cold measures, and this workload
 * models light-SAT service traffic (README.md).
 *
 * Every response is byte-compared with a one-shot ModuleOptimizer run
 * of the same module.
 */
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "core/module_opt.h"
#include "corpus/generator.h"
#include "extract/extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "serve/server.h"
#include "serve/spool.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "workloads.h"

namespace fs = std::filesystem;

namespace perfbench {
namespace {

/** One pipeline worker per request: serving runs requests one at a
 *  time, and small modules gain nothing from the task graph's fan-out
 *  (which module-cold loads instead). */
constexpr unsigned kServeWorkers = 1;
constexpr unsigned kWarmModules = 96;
constexpr unsigned kWarmFunctions = 4;
constexpr unsigned kNovelFunctions = 2;
constexpr unsigned kBlocks = 3;
constexpr double kNovelShare = 0.1;
/** The two fixed offered rates (requests/s). */
constexpr double kLightRps = 30;
constexpr double kHeavyRps = 60;
constexpr size_t kMinSamples = 1000;
/** max_rate_rps: p99 limit, requests per probe, bracket resolution. */
constexpr double kLatencyLimitMs = 250;
constexpr size_t kProbeRequests = 300;
constexpr double kProbeResolution = 1.05;
constexpr unsigned kMaxProbes = 5;
/** setup_s: optimizer builds before, between and after the two
 *  fixed-rate phases, this many at each point. */
constexpr unsigned kSetupRepeats = 21;

/** One distinct module and its one-shot reference result. */
struct ModuleRef
{
    std::string text;
    std::string response; ///< one-shot optimize-module output
    double considered = 0;
    double found = 0;
    double cycles_saved = 0;
    double patched = 0;
    double unique = 0;
};

/** No block with two `mul`s (see the file comment). */
bool
lightSat(const std::string &text)
{
    std::istringstream in(text);
    unsigned muls = 0;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line.back() == ':')
            muls = 0;
        else if (line.find(" = mul ") != std::string::npos && ++muls >= 2)
            return false;
    }
    return true;
}

ModuleRef
makeModule(uint64_t stream_seed, unsigned functions)
{
    for (uint64_t attempt = 0;; ++attempt) {
        lpo::ir::Context ctx;
        lpo::corpus::CorpusGenerator generator(ctx);
        auto module = generator.largeModule(mix(stream_seed + attempt),
                                            functions, kBlocks);
        ModuleRef ref;
        ref.text = lpo::ir::printModule(*module);
        if (lightSat(ref.text))
            return ref;
    }
}

lpo::core::ModuleOptOptions
oneShotOptions()
{
    lpo::core::ModuleOptOptions options;
    options.pipeline.proposer = lpo::core::ProposerKind::Hybrid;
    options.pipeline.num_threads = kServeWorkers;
    return options;
}

/** Fill the reference fields with a cold one-shot run. */
void
computeReference(ModuleRef &ref)
{
    lpo::llm::MockModel model(lpo::llm::modelByName("Gemini2.0T"), 1);
    lpo::core::ModuleOptimizer optimizer(model, oneShotOptions());
    lpo::ir::Context ctx;
    auto module = lpo::ir::parseModule(ctx, ref.text).take();
    lpo::core::ModuleOptResult result = optimizer.optimize(*module, 1);
    ref.response = lpo::ir::printModule(*module);
    ref.considered = double(result.extraction.sequences_considered);
    ref.found = double(result.pipeline.found);
    ref.cycles_saved = result.cycles_before - result.cycles_after;
    ref.patched = double(result.patched_rewrites);
    ref.unique = double(result.unique_sequences);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return true;
}

bool
exists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

struct Request
{
    std::string id;
    size_t module = 0; ///< index into the module table
    uint64_t due_ns = 0;
    double latency_ms = 0;
    std::string status;
};

/** The server ran optimize() for @p r and answered it (possibly after
 *  shedding it first). */
bool
answered(const Request &r)
{
    return r.status == "ok" || r.status == "shed";
}

/** One offered-rate phase against a freshly started server. */
struct Phase
{
    std::string name;
    double rate = 0;
    std::vector<Request> requests;
    std::vector<double> lag_ms;
    double setup_s = 0;
    size_t backlog_max = 0;
    size_t backlog_first_half = 0; ///< max backlog while submitting the
                                   ///< first half of the schedule
    size_t backlog_at_end = 0;     ///< outstanding at the last submission
    bool timed_out = false;
    lpo::serve::ServeStats serve;
    lpo::core::PipelineStats pipeline;
    double service_ns = 0; ///< serve.request_ns sum
    double service_count = 0;
    double open_ns = 0, flush_ns = 0, catalog_ns = 0, llm_ns = 0;
    double optimize_ns = 0; ///< module.latency_ns sum: optimize() inside
                            ///< the server, without its file I/O
    double egraph_ns = 0, solve_ns = 0;
    uint64_t start_ns = 0, end_ns = 0;

    std::vector<double> latencies() const
    {
        std::vector<double> out;
        for (const Request &r : requests)
            out.push_back(r.latency_ms);
        return out;
    }
    /** False when the generator fell behind its schedule (median
     *  lag over 1 ms or p99 over 25 ms) or the backlog kept growing
     *  (at the last submission it exceeds twice the first half's
     *  peak plus ten). */
    bool valid() const
    {
        return !timed_out && percentile(lag_ms, 0.5) <= 1.0 &&
               percentile(lag_ms, 0.99) <= 25.0 &&
               backlog_at_end <= 2 * backlog_first_half + 10;
    }
};

class Workload
{
  public:
    Workload(const Options &options)
        : options_(options),
          base_(options.work_dir + "/serve-" +
                std::to_string(options.seed) + "-" +
                std::to_string(::getpid()))
    {}

    ~Workload()
    {
        std::error_code ec;
        fs::remove_all(base_, ec);
    }

    /** Untimed preparation: modules, references, warmed store. */
    void prepare()
    {
        std::error_code ec;
        fs::remove_all(base_, ec);
        fs::create_directories(base_);
        for (unsigned i = 0; i < kWarmModules; ++i)
            modules_.push_back(
                makeModule(mix(options_.seed * 4099 + i) << 8, kWarmFunctions));
        for (ModuleRef &ref : modules_)
            computeReference(ref);

        lpo::serve::ServeOptions serve = serveOptions(base_ + "/warm");
        serve.once = true;
        lpo::serve::Server server(serve);
        lpo::serve::Spool &spool = server.spool();
        spool.ensureLayout();
        for (unsigned i = 0; i < kWarmModules; ++i)
            spool.submit("w" + std::to_string(1000 + i), modules_[i].text);
        server.run();
        fs::copy(base_ + "/store", base_ + "/store.warm",
                 fs::copy_options::recursive);
    }

    /** Restore the warmed store (so traced and untraced runs start
     *  from identical state). */
    void resetStore()
    {
        fs::remove_all(base_ + "/store");
        fs::copy(base_ + "/store.warm", base_ + "/store",
                 fs::copy_options::recursive);
    }

    /** Set-up samples: build the server's optimizer over the pristine
     *  warmed store (store open, verify-cache seed, catalog load), as
     *  Server::run does at start, @p repeats times. Called between
     *  phases, so the median spans the run rather than one burst.
     *  Server start also fsyncs its first status.json; that disk
     *  latency is left out (it is printed as server_start_s). */
    void sampleSetup(unsigned repeats, std::vector<double> *samples) const
    {
        for (unsigned i = 0; i < repeats; ++i) {
            uint64_t t0 = nowNs();
            lpo::llm::MockModel model(lpo::llm::modelByName("Gemini2.0T"), 1);
            lpo::core::ModuleOptOptions opt_options = oneShotOptions();
            opt_options.pipeline.store_path = base_ + "/store.warm";
            lpo::core::ModuleOptimizer optimizer(model, opt_options);
            samples->push_back(double(nowNs() - t0) / 1e9);
        }
    }

    /** Draw a phase's arrival schedule and request mix (untimed; novel
     *  modules get their one-shot references here). */
    Phase drawPhase(const std::string &name, double rate, size_t count,
                    uint64_t salt)
    {
        Phase phase;
        phase.name = name;
        phase.rate = rate;
        lpo::Rng rng(mix(options_.seed ^ (salt * 0x9e3779b97f4a7c15ull)));
        uint64_t offset_ns = 0;
        for (size_t k = 0; k < count; ++k) {
            Request r;
            char id[32];
            std::snprintf(id, sizeof id, "r%07zu", k);
            r.id = id;
            if (rng.nextDouble() < kNovelShare) {
                modules_.push_back(makeModule(
                    mix(options_.seed * 131 + salt * 1'000'003 + k) << 8,
                    kNovelFunctions));
                computeReference(modules_.back());
                r.module = modules_.size() - 1;
            } else {
                r.module = rng.nextBelow(kWarmModules);
            }
            offset_ns += uint64_t(-std::log(1.0 - rng.nextDouble()) / rate *
                                  1e9);
            r.due_ns = offset_ns;
            phase.requests.push_back(std::move(r));
        }
        return phase;
    }

    /** Start a fresh server on the shared store, offer @p phase's
     *  schedule, stop the server. */
    void runPhase(Phase &phase)
    {
        const size_t count = phase.requests.size();
        lpo::telemetry::MetricsRegistry::instance().reset();
        phase.start_ns = nowNs();
        SpanLog::Scope phase_span("serve.phase");
        lpo::serve::Server server(serveOptions(base_ + "/spool-" + phase.name));
        lpo::serve::Spool &spool = server.spool();
        // Set-up: start the server (store open + catalog load) until it
        // publishes its first status.json.
        std::atomic<bool> exited{false};
        std::thread thread;
        // Stops and joins the server on every path out of this scope.
        struct Joiner
        {
            lpo::serve::Server &server;
            std::thread &thread;
            ~Joiner()
            {
                server.requestStop();
                if (thread.joinable())
                    thread.join();
            }
        } joiner{server, thread};
        {
            SpanLog::Scope span("serve.start");
            thread = std::thread([&] {
                server.run();
                exited = true;
            });
            while (!exists(spool.statusPath()) && !exited)
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        phase.setup_s = double(nowNs() - phase.start_ns) / 1e9;
        if (exited) {
            std::printf("server for phase %s exited at start-up\n",
                        phase.name.c_str());
            phase.timed_out = true;
            for (Request &r : phase.requests)
                r.status = "unanswered";
            phase.end_ns = nowNs();
            return;
        }

        const uint64_t t0 = nowNs();
        const uint64_t give_up =
            t0 + phase.requests.back().due_ns + 60'000'000'000ull;
        size_t next = 0, front = 0;
        std::vector<bool> shed_seen(count, false);
        while (front < count) {
            uint64_t now = nowNs();
            if (now > give_up) {
                phase.timed_out = true;
                break;
            }
            if (next < count && t0 + phase.requests[next].due_ns <= now) {
                Request &r = phase.requests[next];
                phase.lag_ms.push_back(
                    double(now - (t0 + r.due_ns)) / 1e6);
                {
                    SpanLog::Scope span("serve.submit");
                    spool.submit(r.id, modules_[r.module].text);
                }
                ++next;
                size_t backlog = next - front;
                phase.backlog_max = std::max(phase.backlog_max, backlog);
                if (next <= count / 2)
                    phase.backlog_first_half =
                        std::max(phase.backlog_first_half, backlog);
                if (next == count)
                    phase.backlog_at_end = backlog;
                continue;
            }
            // Wait (one span) until the next request is due, polling
            // for answers. The server claims in sorted id order, so
            // answers arrive in submission order: poll the oldest
            // outstanding request.
            SpanLog::Scope span("serve.wait");
            while (front < count && nowNs() <= give_up &&
                   !(next < count &&
                     t0 + phase.requests[next].due_ns <= nowNs())) {
                while (front < next) {
                    Request &r = phase.requests[front];
                    std::string meta;
                    if (!exists(spool.metaPath(r.id)) ||
                        !readFile(spool.metaPath(r.id), &meta))
                        break;
                    if (meta.rfind("status=retry", 0) == 0) {
                        shed_seen[front] = true;
                        break;
                    }
                    r.latency_ms = double(nowNs() - (t0 + r.due_ns)) / 1e6;
                    r.status = meta.substr(7, meta.find('\n') - 7);
                    if (shed_seen[front])
                        r.status = "shed";
                    ++front;
                }
                uint64_t wake = nowNs() + 200'000;
                if (next < count)
                    wake = std::min(wake, t0 + phase.requests[next].due_ns);
                uint64_t now2 = nowNs();
                if (wake > now2)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(wake - now2));
            }
        }
        {
            SpanLog::Scope span("serve.stop");
            server.requestStop();
            thread.join();
        }
        phase.serve = server.stats();
        if (const lpo::core::PipelineStats *ps = server.pipelineStats())
            phase.pipeline = *ps;
        auto snapshot =
            lpo::telemetry::MetricsRegistry::instance().snapshot();
        auto sum = [&](const char *h) {
            const auto *hist = snapshot.histogram(h);
            return hist ? double(hist->sum) : 0.0;
        };
        if (const auto *h = snapshot.histogram("serve.request_ns")) {
            phase.service_ns = double(h->sum);
            phase.service_count = double(h->count);
        }
        phase.open_ns = sum("kvstore.open_ns");
        phase.flush_ns = sum("kvstore.append_ns") + sum("kvstore.sync_ns");
        phase.catalog_ns = sum("proposer.catalog_ns");
        phase.llm_ns = sum("proposer.llm_ns");
        phase.optimize_ns = sum("module.latency_ns");
        phase.egraph_ns = sum("proposer.egraph_ns");
        phase.solve_ns = sum("verify.solve_ns");
        for (size_t k = front; k < count; ++k)
            phase.requests[k].status = "unanswered";
        phase.end_ns = nowNs();
    }

    Phase offer(const std::string &name, double rate, size_t count,
                uint64_t salt)
    {
        Phase phase = drawPhase(name, rate, count, salt);
        runPhase(phase);
        return phase;
    }

    /** Byte-compare every answered response with its reference. */
    uint64_t checkResponses(const Phase &phase) const
    {
        lpo::serve::Spool spool(base_ + "/spool-" + phase.name);
        uint64_t mismatches = 0;
        for (const Request &r : phase.requests) {
            if (r.status != "ok")
                continue;
            std::string bytes;
            if (!readFile(spool.responsePath(r.id), &bytes) ||
                bytes != modules_[r.module].response)
                ++mismatches;
        }
        return mismatches;
    }

    /** Time one request's steps through a benchmark-owned optimizer on
     *  a copy of the warmed store, as labelled replay spans. */
    void replayRequest(const ModuleRef &ref, lpo::core::ModuleOptimizer &opt,
                       lpo::serve::Spool &spool, const std::string &id)
    {
        lpo::ir::Context ctx;
        std::unique_ptr<lpo::ir::Module> module;
        {
            SpanLog::Scope span("ir.parseModule", true);
            module = lpo::ir::parseModule(ctx, ref.text).take();
        }
        {
            SpanLog::Scope span("extract.extractDetailed", true);
            lpo::extract::Extractor extractor;
            extractor.extractDetailed(*module);
        }
        {
            SpanLog::Scope span("module_opt.optimize", true);
            opt.optimize(*module, 1);
        }
        std::string printed;
        {
            SpanLog::Scope span("ir.printModule", true);
            printed = lpo::ir::printModule(*module);
        }
        {
            SpanLog::Scope span("serve.Spool.writeResponse", true);
            spool.writeResponse(id, printed);
        }
        {
            SpanLog::Scope span("persist.flushStore", true);
            opt.flushStore();
        }
    }

    const std::vector<ModuleRef> &modules() const { return modules_; }
    const std::string &base() const { return base_; }

    lpo::serve::ServeOptions serveOptions(const std::string &spool) const
    {
        lpo::serve::ServeOptions serve;
        serve.spool_root = spool;
        serve.store_path = base_ + "/store";
        serve.threads = kServeWorkers;
        return serve;
    }

  private:
    const Options &options_;
    std::string base_;
    std::vector<ModuleRef> modules_;
};

double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

/** Counts of the light + heavy phases (the exact self-check set). */
Counters
phaseCounts(const std::vector<Phase> &phases,
            const std::vector<ModuleRef> &modules)
{
    Counters c;
    for (const Phase &p : phases) {
        c["found"] += double(p.pipeline.found);
        c["llm_calls"] += double(p.pipeline.llm_calls);
        c["verify_calls"] += double(p.pipeline.verifier_calls);
        c["sat_conflicts"] += double(p.pipeline.sat_conflicts);
        for (const Request &r : p.requests)
            if (answered(r))
                c["cycles_saved"] += modules[r.module].cycles_saved;
    }
    return c;
}

size_t
samplesFor(double rate, double share, double seconds)
{
    return std::max(kMinSamples, size_t(rate * share * seconds));
}

} // namespace

Outcome
runServeMixed(const Options &options)
{
    Outcome outcome;
    printFingerprint(options.revision, options.workload, kServeWorkers);
    Workload workload(options);
    std::printf("serve-mixed: %u warm modules x %u functions, novel share "
                "%.0f%% (%u functions), offered %.0f and %.0f req/s, "
                "%u server pipeline worker, 1 load-generator thread\n",
                kWarmModules, kWarmFunctions, kNovelShare * 100,
                kNovelFunctions, kLightRps, kHeavyRps, kServeWorkers);
    SpanLog &log = SpanLog::instance();
    log.reset(1);
    workload.prepare();
    std::vector<double> setup_samples;
    workload.sampleSetup(kSetupRepeats, &setup_samples);

    size_t n_light = samplesFor(kLightRps, 0.35, options.seconds);
    size_t n_heavy = samplesFor(kHeavyRps, 0.25, options.seconds);
    std::vector<Phase> timed;
    workload.resetStore();
    timed.push_back(workload.offer("light", kLightRps, n_light, 1));
    workload.sampleSetup(kSetupRepeats, &setup_samples);
    timed.push_back(workload.offer("heavy", kHeavyRps, n_heavy, 2));
    workload.sampleSetup(kSetupRepeats, &setup_samples);

    // max_rate_rps: bracket [lo, hi] with lo meeting the limit and hi
    // not, starting from the heavy rate (doubling while it holds), then
    // bisect geometrically until hi / lo < 1.05.
    auto meets = [](const Phase &p) {
        return p.valid() &&
               percentile(p.latencies(), 0.99) <= kLatencyLimitMs;
    };
    std::vector<Phase> probes;
    auto probe = [&](double rate) {
        probes.push_back(workload.offer("probe" +
                                            std::to_string(probes.size()),
                                        rate, kProbeRequests,
                                        10 + probes.size()));
        const Phase &p = probes.back();
        bool ok = meets(p);
        std::printf("  probe %.1f req/s: p99 %.1f ms (n=%zu), lag p99 %.2f "
                    "ms, backlog max %zu, %s\n",
                    rate, percentile(p.latencies(), 0.99), p.requests.size(),
                    percentile(p.lag_ms, 0.99), p.backlog_max,
                    !p.valid() ? "INVALID" : ok ? "meets limit" : "over limit");
        return ok;
    };
    double lo = 0, hi = kHeavyRps;
    if (!options.trace) {
        if (meets(timed[1])) {
            lo = kHeavyRps;
            hi = 2 * kHeavyRps;
            while (probes.size() < kMaxProbes && probe(hi)) {
                lo = hi;
                hi *= 2;
            }
        } else if (meets(timed[0])) {
            lo = kLightRps;
        }
        while (lo > 0 && hi / lo > kProbeResolution &&
               probes.size() < kMaxProbes) {
            double mid = std::sqrt(lo * hi);
            (probe(mid) ? lo : hi) = mid;
        }
    }
    double max_rate = lo;

    uint64_t attempted = 0, failed = 0, mismatches = 0, shed = 0;
    std::vector<double> setup, lag;
    for (const Phase &p : timed) {
        for (const Request &r : p.requests) {
            ++attempted;
            if (r.status != "ok")
                ++failed;
        }
        mismatches += workload.checkResponses(p);
        shed += p.serve.shed;
    }
    failed += shed;
    for (const std::vector<Phase> *set : {&timed, &probes})
        for (const Phase &p : *set) {
            setup.push_back(p.setup_s);
            lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
            if (set == &probes)
                mismatches += workload.checkResponses(p);
        }

    Counters counts = phaseCounts(timed, workload.modules());
    // Sequences of answered requests per second the server spent in
    // ModuleOptimizer::optimize, over the two fixed-rate phases (spool
    // and store file I/O excluded: on a shared disk it swings the total
    // several-fold; probes excluded: their rates, and so their CPU
    // contention, depend on the search path).
    double considered = 0, optimize_s = 0;
    for (const Phase &p : timed) {
        for (const Request &r : p.requests)
            if (answered(r))
                considered += workload.modules()[r.module].considered;
        optimize_s += p.optimize_ns / 1e9;
    }
    Report &e2e = outcome.end_to_end;
    e2e.set("setup_s", median(setup_samples), "s");
    e2e.set("server_start_s", median(setup), "s");
    e2e.set("seq_per_s", ratio(considered, optimize_s), "1/s");
    e2e.set("found", counts["found"], "count");
    e2e.set("cycles_saved", counts["cycles_saved"], "cycles");
    e2e.set("llm_calls", counts["llm_calls"], "count");
    e2e.set("peak_rss_mb", peakRssMb(), "MB");
    // An invalid rate point gets no number.
    for (const Phase &p : timed)
        if (p.valid()) {
            e2e.set("request_p50_ms." + p.name,
                    percentile(p.latencies(), 0.5), "ms");
            e2e.set("request_p99_ms." + p.name,
                    percentile(p.latencies(), 0.99), "ms");
        }
    if (!options.trace)
        e2e.set("max_rate_rps", max_rate, "1/s");
    e2e.set("error_rate", ratio(double(failed + mismatches), double(attempted)),
            "ratio");
    e2e.set("loadgen.lag_ms", percentile(lag, 0.99), "ms");
    for (const Phase &p : timed) {
        std::printf("phase %s: %.0f req/s offered, %zu requests, setup %.1f "
                    "ms, mean service %.2f ms, backlog max %zu, %s\n",
                    p.name.c_str(), p.rate, p.requests.size(),
                    p.setup_s * 1e3,
                    ratio(p.service_ns / 1e6, p.service_count), p.backlog_max,
                    p.valid() ? "valid" : "INVALID (generator behind or "
                                          "backlog growing; not reported)");
        printPercentile("request p50", p.latencies(), 0.5);
        printPercentile("request p99", p.latencies(), 0.99);
        printPercentile("loadgen lag p99", p.lag_ms, 0.99);
    }
    std::printf("requests %" PRIu64 ", not ok %" PRIu64 " (shed notices %"
                PRIu64 "), response mismatches %" PRIu64 "\n",
                attempted, failed, shed, mismatches);

    uint64_t errors = 0;
    for (const Phase &p : timed)
        errors += p.serve.errors + p.serve.partial;
    outcome.attempted = attempted;
    outcome.failed = failed + mismatches;
    outcome.correct = mismatches == 0 && errors == 0;

    if (options.trace) {
        std::vector<Phase> traced;
        traced.push_back(workload.drawPhase("tlight", kLightRps, n_light, 1));
        traced.push_back(workload.drawPhase("theavy", kHeavyRps, n_heavy, 2));
        workload.resetStore();
        log.reset(1);
        log.setEnabled(true);
        for (Phase &p : traced)
            workload.runPhase(p);
        log.setEnabled(false);
        uint64_t mm = 0;
        for (const Phase &p : traced)
            mm += workload.checkResponses(p);
        outcome.correct &= mm == 0 &&
                           sameCounts(counts,
                                      phaseCounts(traced, workload.modules()),
                                      "traced vs untraced");
        std::vector<Span> spans = log.take();

        // Replays of the serve request steps on every tenth request.
        workload.resetStore();
        {
            lpo::llm::MockModel model(lpo::llm::modelByName("Gemini2.0T"), 1);
            lpo::core::ModuleOptOptions opt_options = oneShotOptions();
            opt_options.pipeline.store_path = workload.base() + "/store";
            lpo::core::ModuleOptimizer optimizer(model, opt_options);
            lpo::serve::Spool spool(workload.base() + "/spool-replay");
            spool.ensureLayout();
            log.reset(1);
            log.setEnabled(true);
            size_t k = 0;
            for (const Phase &p : traced)
                for (size_t i = 0; i < p.requests.size(); i += 10)
                    workload.replayRequest(
                        workload.modules()[p.requests[i].module], optimizer,
                        spool, "x" + std::to_string(k++));
            log.setEnabled(false);
        }
        std::vector<Span> replays = log.take();
        for (Span &s : replays) {
            s.tid = 100; // replay thread track
            s.replay = true;
            spans.push_back(std::move(s));
        }

        SpanTotals totals = summarizeSpans(spans, 1, 0, ~0ull);
        Report &layers = outcome.per_layer;
        lpo::core::PipelineStats ps;
        double service_ns = 0, service_count = 0, open_ns = 0, flush_ns = 0,
               catalog_ns = 0, llm_ns = 0, patched = 0, sequences = 0,
               unique = 0, egraph_ns = 0, solve_ns = 0, optimize_ns = 0;
        std::vector<double> latency;
        size_t backlog_max = 0;
        uint64_t shed_t = 0;
        std::vector<double> lag_t;
        for (const Phase &p : traced) {
            const lpo::core::PipelineStats &s = p.pipeline;
            ps.llm_calls += s.llm_calls;
            ps.syntax_errors += s.syntax_errors;
            ps.found_by_llm += s.found_by_llm;
            ps.egraph_consults += s.egraph_consults;
            ps.found_by_egraph += s.found_by_egraph;
            ps.catalog_consults += s.catalog_consults;
            ps.catalog_proposals += s.catalog_proposals;
            ps.verifier_calls += s.verifier_calls;
            ps.incorrect_candidates += s.incorrect_candidates;
            ps.degraded_verdicts += s.degraded_verdicts;
            ps.sat_escalations += s.sat_escalations;
            ps.verify_cache_hits += s.verify_cache_hits;
            ps.verify_cache_misses += s.verify_cache_misses;
            ps.sat_solves += s.sat_solves;
            ps.sat_conflicts += s.sat_conflicts;
            ps.sat_propagations += s.sat_propagations;
            ps.session_reuses += s.session_reuses;
            ps.store_cache_flushed += s.store_cache_flushed;
            ps.store_catalog_flushed += s.store_catalog_flushed;
            ps.store_flush_failures += s.store_flush_failures;
            ps.scheduler += s.scheduler;
            ps.timings.extract_ns += s.timings.extract_ns;
            ps.timings.propose_ns += s.timings.propose_ns;
            ps.timings.verify_ns += s.timings.verify_ns;
            ps.timings.dce_ns += s.timings.dce_ns;
            ps.timings.total_ns += s.timings.total_ns;
            service_ns += p.service_ns;
            service_count += p.service_count;
            open_ns += p.open_ns;
            flush_ns += p.flush_ns;
            catalog_ns += p.catalog_ns;
            llm_ns += p.llm_ns;
            egraph_ns += p.egraph_ns;
            solve_ns += p.solve_ns;
            optimize_ns += p.optimize_ns;
            backlog_max = std::max(backlog_max, p.backlog_max);
            shed_t += p.serve.shed;
            lag_t.insert(lag_t.end(), p.lag_ms.begin(), p.lag_ms.end());
            for (const Request &r : p.requests) {
                latency.push_back(r.latency_ms);
                patched += workload.modules()[r.module].patched;
                sequences += workload.modules()[r.module].considered;
                unique += workload.modules()[r.module].unique;
            }
        }
        double service_ms = ratio(service_ns / 1e6, service_count);
        layers.set("extract.busy_ms", totals.total_ms["extract.extractDetailed"],
                   "ms");
        layers.set("extract.sequences", sequences, "count");
        layers.set("extract.unique_ratio", ratio(unique, sequences), "ratio");
        layers.set("proposer.llm.calls", double(ps.llm_calls), "count");
        // The server owns its model, so completions are timed by the
        // library's own proposer.llm_ns sum (never its percentiles).
        layers.set("proposer.llm.busy_ms", llm_ns / 1e6, "ms");
        layers.set("proposer.llm.syntax_errors", double(ps.syntax_errors),
                   "count");
        layers.set("proposer.llm.useful_ratio",
                   ratio(double(ps.found_by_llm), double(ps.llm_calls)),
                   "ratio");
        layers.set("proposer.egraph.busy_ms", egraph_ns / 1e6, "ms");
        layers.set("proposer.egraph.consults", double(ps.egraph_consults),
                   "count");
        layers.set("proposer.egraph.useful_ratio",
                   ratio(double(ps.found_by_egraph),
                         double(ps.egraph_consults)),
                   "ratio");
        layers.set("proposer.catalog.consults", double(ps.catalog_consults),
                   "count");
        layers.set("proposer.catalog.hit_ratio",
                   ratio(double(ps.catalog_proposals),
                         double(ps.catalog_consults)),
                   "ratio");
        layers.set("proposer.catalog.busy_ms", catalog_ns / 1e6, "ms");
        layers.set("verify.calls", double(ps.verifier_calls), "count");
        layers.set("verify.busy_ms", double(ps.timings.verify_ns) / 1e6, "ms");
        layers.set("verify.refuted", double(ps.incorrect_candidates), "count");
        layers.set("verify.degraded", double(ps.degraded_verdicts), "count");
        layers.set("verify.escalations", double(ps.sat_escalations), "count");
        layers.set("verify.cache_hit_ratio",
                   ratio(double(ps.verify_cache_hits),
                         double(ps.verify_cache_hits + ps.verify_cache_misses)),
                   "ratio");
        layers.set("smt.solves", double(ps.sat_solves), "count");
        layers.set("smt.conflicts", double(ps.sat_conflicts), "count");
        layers.set("smt.propagations", double(ps.sat_propagations), "count");
        layers.set("smt.session_reuses", double(ps.session_reuses), "count");
        layers.set("smt.conflicts_per_ms",
                   ratio(double(ps.sat_conflicts), solve_ns / 1e6), "1/ms");
        // optimize() minus its extract and pipeline children, as on
        // module-cold: optimize wall - total_ns + dce_ns.
        layers.set("module_opt.self_ms",
                   (optimize_ns - double(ps.timings.total_ns) +
                    double(ps.timings.dce_ns)) / 1e6,
                   "ms");
        layers.set("module_opt.patched", patched, "count");
        layers.set("task_graph.idle_ms", double(ps.scheduler.idle_ns) / 1e6,
                   "ms");
        layers.set("task_graph.steals", double(ps.scheduler.steals), "count");
        double pipeline_ns = double(ps.timings.total_ns) -
                             double(ps.timings.extract_ns) -
                             double(ps.timings.dce_ns);
        layers.set("task_graph.parallel_eff",
                   ratio(double(ps.timings.propose_ns + ps.timings.verify_ns),
                         pipeline_ns * kServeWorkers),
                   "ratio");
        layers.set("persist.open_ms", open_ns / 1e6, "ms");
        layers.set("persist.flush_ms", flush_ns / 1e6, "ms");
        layers.set("persist.flush_records",
                   double(ps.store_cache_flushed + ps.store_catalog_flushed),
                   "count");
        layers.set("persist.flush_failures", double(ps.store_flush_failures),
                   "count");
        layers.set("serve.wait_ms", mean(latency) - service_ms, "ms");
        layers.set("serve.service_ms", service_ms, "ms");
        layers.set("serve.shed", double(shed_t), "count");
        layers.set("serve.backlog_max", double(backlog_max), "count");
        layers.set("ir.parse_ms", totals.total_ms["ir.parseModule"], "ms");
        layers.set("ir.print_ms", totals.total_ms["ir.printModule"], "ms");
        layers.set("loadgen.lag_ms", percentile(lag_t, 0.99), "ms");
        double untraced_s = 0;
        for (const Phase &p : timed)
            untraced_s += double(p.end_ns - p.start_ns) / 1e9;
        finishTrace(options, spans, traced[0].start_ns, traced[1].end_ns,
                    untraced_s, &outcome);
    }
    return outcome;
}

} // namespace perfbench
