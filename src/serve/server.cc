#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "core/json_writer.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/failpoint.h"
#include "support/telemetry.h"
#include "verify/persist.h"

namespace lpo::serve {

namespace {

bool
readFileBytes(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return true;
}

void
sleepMs(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

} // namespace

const char *
storeHealthName(StoreHealth health)
{
    switch (health) {
    case StoreHealth::None: return "none";
    case StoreHealth::Persistent: return "persistent";
    case StoreHealth::ReadOnly: return "read-only";
    case StoreHealth::Degraded: return "degraded";
    }
    return "?";
}

uint64_t
totalFailpointFires()
{
    FailPoints &failpoints = FailPoints::instance();
    uint64_t total = 0;
    for (const std::string &site : failpoints.siteNames())
        total += failpoints.fires(site);
    return total;
}

Server::Server(ServeOptions options)
    : options_(std::move(options)), spool_(options_.spool_root)
{}

Server::~Server() = default;

core::ModuleOptOptions
Server::optimizerOptions() const
{
    // Mirror lpo_cli's optimize-module construction exactly, so a
    // served response is byte-identical to a one-shot run of the same
    // module with the same proposer (the replay contract the CI soak
    // asserts).
    core::ModuleOptOptions mod_options;
    core::PipelineConfig config;
    config.proposer = options_.proposer;
    config.num_threads = options_.threads;
    config.store_path = options_.store_path;
    mod_options.adoptPipeline(std::move(config));
    mod_options.step_budget = options_.step_budget;
    return mod_options;
}

void
Server::buildOptimizer()
{
    if (!model_)
        model_ = std::make_unique<llm::MockModel>(
            llm::modelByName(options_.model), 1);
    optimizer_ = std::make_unique<core::ModuleOptimizer>(
        *model_, optimizerOptions());
    refreshStoreHealth();
}

void
Server::rebuildOptimizer()
{
    // Pending (unflushed) verdicts and catalog records may be tainted
    // by the injected fault; drop them so the destructor's flush
    // cannot journal them, then reopen from the last durable state.
    if (optimizer_)
        optimizer_->discardPendingStore();
    optimizer_.reset();
    buildOptimizer();
    ++stats_.optimizer_rebuilds;
    telemetry::counter("serve.optimizer_rebuilds").inc();
}

void
Server::refreshStoreHealth()
{
    // A degraded store stays degraded until restart: flushes stopped,
    // so flipping back healthy would misreport what is being persisted.
    if (stats_.store_health == StoreHealth::Degraded &&
        !options_.store_path.empty())
        return;
    if (options_.store_path.empty())
        stats_.store_health = StoreHealth::None;
    else if (!optimizer_ || !optimizer_->store())
        stats_.store_health = StoreHealth::Degraded;
    else if (optimizer_->store()->readOnly())
        stats_.store_health = StoreHealth::ReadOnly;
    else
        stats_.store_health = StoreHealth::Persistent;
}

Server::Attempt
Server::runAttempt(const std::string &bytes)
{
    Attempt attempt;
    try {
        ir::Context ctx;
        auto module = ir::parseModule(ctx, bytes);
        if (!module) {
            attempt.error = module.error().toString();
            return attempt;
        }
        attempt.parsed = true;
        core::ModuleOptResult result = optimizer_->optimize(**module, 1);
        attempt.deadline_skipped = result.deadline_skipped;
        attempt.steps_used = result.steps_used;
        attempt.patched = result.patched_rewrites;
        attempt.response = ir::printModule(**module);
    } catch (const std::exception &e) {
        attempt.exception = true;
        attempt.error = e.what();
    } catch (...) {
        attempt.exception = true;
        attempt.error = "unknown exception";
    }
    return attempt;
}

void
Server::handleRequest(const std::string &id)
{
    static telemetry::Histogram request_hist =
        telemetry::histogram("serve.request_ns");
    telemetry::ScopedTimer timer(request_hist);

    std::string bytes;
    Attempt attempt;
    unsigned attempts_used = 1;
    if (!readFileBytes(spool_.workPath(id), &bytes)) {
        attempt.error = "request file unreadable";
    } else {
        for (unsigned n = 0;; ++n) {
            uint64_t fires_before = totalFailpointFires();
            attempt = runAttempt(bytes);
            attempts_used = n + 1;
            if (totalFailpointFires() == fires_before ||
                n >= options_.fault_retry_limit)
                break;
            // A fault fired during this attempt; its effect on the
            // warm state (and possibly on this result) is not trusted.
            // Quarantine and replay from the original bytes.
            ++stats_.fault_retries;
            telemetry::counter("serve.fault_retries").inc();
            std::fprintf(stderr,
                         "lpo_serve: fault injected during request "
                         "'%s' (attempt %u); rebuilding and retrying\n",
                         id.c_str(), n + 1);
            rebuildOptimizer();
        }
    }

    const char *status = attempt.parsed && !attempt.exception
                             ? (attempt.deadline_skipped ? "partial"
                                                         : "ok")
                             : "error";
    std::ostringstream meta;
    meta << "status=" << status << "\n"
         << "id=" << id << "\n"
         << "attempts=" << attempts_used << "\n";
    if (attempt.parsed && !attempt.exception) {
        meta << "patched=" << attempt.patched << "\n"
             << "steps_used=" << attempt.steps_used << "\n"
             << "deadline_skipped=" << attempt.deadline_skipped << "\n";
    } else {
        meta << "error=" << attempt.error << "\n";
    }

    std::string io_error;
    bool wrote = true;
    if (attempt.parsed && !attempt.exception)
        wrote = spool_.writeResponse(id, attempt.response, &io_error);
    if (wrote)
        wrote = spool_.writeMeta(id, meta.str(), &io_error);
    if (!wrote) {
        // Response not durable: leave the claim in work/ so a restart
        // replays the request instead of losing it.
        std::fprintf(stderr,
                     "lpo_serve: cannot write response for '%s': %s "
                     "(leaving request claimed for replay)\n",
                     id.c_str(), io_error.c_str());
        return;
    }
    spool_.complete(id);
    shed_notified_.erase(id);

    ++stats_.requests;
    telemetry::counter("serve.requests").inc();
    if (!std::strcmp(status, "ok")) {
        ++stats_.ok;
    } else if (!std::strcmp(status, "partial")) {
        ++stats_.partial;
        telemetry::counter("serve.requests_partial").inc();
    } else {
        ++stats_.errors;
        telemetry::counter("serve.requests_error").inc();
        std::fprintf(stderr, "lpo_serve: request '%s' failed: %s\n",
                     id.c_str(), attempt.error.c_str());
    }
}

void
Server::flushStoreWithRetry()
{
    if (stats_.store_health != StoreHealth::Persistent || !optimizer_)
        return;
    unsigned backoff_ms = options_.flush_backoff_ms;
    for (unsigned n = 0; n <= options_.flush_retry_limit; ++n) {
        if (n) {
            ++stats_.flush_retries;
            telemetry::counter("serve.flush_retries").inc();
            sleepMs(backoff_ms);
            backoff_ms *= 2;
        }
        if (optimizer_->flushStore())
            return;
    }
    // Persistently failing flushes: stop paying for them and serve
    // memory-only. Already-journaled state stays intact on disk; the
    // operator sees the transition in status.json.
    ++stats_.flush_failures;
    telemetry::counter("serve.flush_failures").inc();
    stats_.store_health = StoreHealth::Degraded;
    std::fprintf(stderr,
                 "lpo_serve: store flush kept failing after %u "
                 "attempt(s); degrading to memory-only\n",
                 options_.flush_retry_limit + 1);
}

void
Server::maybeCompact()
{
    if (!options_.compact_interval ||
        stats_.store_health != StoreHealth::Persistent || !optimizer_)
        return;
    if (stats_.requests == 0 ||
        stats_.requests % options_.compact_interval != 0)
        return;
    std::string error;
    if (optimizer_->compactStore(&error)) {
        ++stats_.compactions;
        telemetry::counter("serve.compactions").inc();
    } else {
        std::fprintf(stderr, "lpo_serve: compaction failed: %s\n",
                     error.c_str());
    }
}

void
Server::shedExcess(const std::vector<std::string> &pending)
{
    if (pending.size() <= options_.queue_capacity) {
        shed_notified_.clear();
        return;
    }
    for (size_t i = options_.queue_capacity; i < pending.size(); ++i) {
        const std::string &id = pending[i];
        if (!shed_notified_.insert(id).second)
            continue;
        std::ostringstream meta;
        meta << "status=retry\n"
             << "id=" << id << "\n"
             << "retry_after_ms=" << options_.retry_after_ms << "\n"
             << "queue_depth=" << pending.size() << "\n";
        spool_.writeMeta(id, meta.str());
        ++stats_.shed;
        telemetry::counter("serve.requests_shed").inc();
    }
}

void
Server::writeStatus(bool stopping)
{
    double uptime = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start_time_)
                        .count();
    size_t queue_depth = spool_.pendingRequests().size();
    telemetry::gauge("serve.queue_depth")
        .set(static_cast<int64_t>(queue_depth));

    core::JsonWriter json;
    json.beginObject();
    json.field("pid", static_cast<int64_t>(::getpid()));
    json.field("stopping", stopping);
    json.field("uptime_seconds", uptime, 3);
    json.field("queue_depth", static_cast<uint64_t>(queue_depth));
    json.field("claimed",
               static_cast<uint64_t>(spool_.claimedRequests().size()));
    json.field("store_health", storeHealthName(stats_.store_health));
    json.field("store_dir", options_.store_path);
    json.field("requests", stats_.requests);
    json.field("ok", stats_.ok);
    json.field("partial", stats_.partial);
    json.field("errors", stats_.errors);
    json.field("shed", stats_.shed);
    json.field("fault_retries", stats_.fault_retries);
    json.field("optimizer_rebuilds", stats_.optimizer_rebuilds);
    json.field("flush_retries", stats_.flush_retries);
    json.field("flush_failures", stats_.flush_failures);
    json.field("compactions", stats_.compactions);
    json.field("recovered", stats_.recovered);
    // Cases answered from a remembered miss (no proposer, no verifier)
    // over this optimizer's life.
    if (optimizer_)
        json.field("miss_replays", optimizer_->pipelineStats().miss_replays);
    if (optimizer_ && optimizer_->store()) {
        const verify::StoreStats store = optimizer_->store()->stats();
        json.key("store").beginObject(core::JsonWriter::Layout::Inline);
        json.field("cache_loaded", store.cache_loaded);
        json.field("catalog_loaded", store.catalog_loaded);
        json.field("misses_loaded", store.misses_loaded);
        json.field("cache_flushed", store.cache_flushed);
        json.field("catalog_flushed", store.catalog_flushed);
        json.field("misses_flushed", store.misses_flushed);
        json.field("flush_failures", store.flush_failures);
        json.field("recoveries", store.recoveries);
        json.field("quarantined", store.quarantined);
        json.endObject();
    }
    json.key("metrics").valueRaw(
        telemetry::MetricsRegistry::instance().snapshot().toJson());
    json.endObject();

    spool_.atomicWrite(spool_.statusPath(), json.str() + "\n");
    last_status_write_ = std::chrono::steady_clock::now();
}

int
Server::run()
{
    start_time_ = std::chrono::steady_clock::now();
    std::string error;
    if (!spool_.ensureLayout(&error)) {
        std::fprintf(stderr, "lpo_serve: unusable spool: %s\n",
                     error.c_str());
        return 1;
    }
    // Startup-only: clients must never sweep (they would unlink a
    // live daemon's in-flight response staging files).
    spool_.sweepLitter();
    stats_.recovered = spool_.recoverClaimed();
    if (stats_.recovered)
        std::fprintf(stderr,
                     "lpo_serve: recovered %llu claimed request(s) "
                     "from a previous run\n",
                     (unsigned long long)stats_.recovered);
    buildOptimizer();
    writeStatus(false);

    bool done = false;
    while (!done && !stopRequested()) {
        std::vector<std::string> pending = spool_.pendingRequests();
        shedExcess(pending);
        if (pending.empty()) {
            if (options_.once)
                break;
            auto since_status = std::chrono::steady_clock::now() -
                                last_status_write_;
            if (since_status >=
                std::chrono::milliseconds(options_.status_interval_ms))
                writeStatus(false);
            // Sleep in small slices so requestStop() stays responsive.
            for (unsigned slept = 0;
                 slept < options_.poll_ms && !stopRequested();
                 slept += 10)
                sleepMs(std::min(10u, options_.poll_ms - slept));
            continue;
        }
        size_t admitted =
            std::min(pending.size(), options_.queue_capacity);
        for (size_t i = 0; i < admitted; ++i) {
            if (stopRequested())
                break;
            if (!spool_.claim(pending[i]))
                continue;
            handleRequest(pending[i]);
            flushStoreWithRetry();
            maybeCompact();
            writeStatus(false);
            if (options_.max_requests &&
                stats_.requests >= options_.max_requests) {
                done = true;
                break;
            }
        }
    }

    // Graceful drain: anything still claimed was interrupted between
    // claim and response — answer it before exiting so SIGTERM never
    // strands an in-flight request.
    for (const std::string &id : spool_.claimedRequests()) {
        handleRequest(id);
        flushStoreWithRetry();
    }
    if (stats_.store_health == StoreHealth::Persistent && optimizer_)
        optimizer_->flushStore();
    writeStatus(true);
    return 0;
}

} // namespace lpo::serve
