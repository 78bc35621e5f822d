// lpo_serve in-process: spool protocol invariants, response
// byte-identity with one-shot runs, request isolation (poison
// requests, injected faults, watchdog partials), backpressure
// shedding, kill -9 recovery via work/, and store-fault degradation
// to memory-only — the robustness contracts DESIGN.md's "Service
// layer" section promises.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generator.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/mock_model.h"
#include "serve/server.h"
#include "serve/spool.h"
#include "support/failpoint.h"

using namespace lpo;
using namespace lpo::serve;

namespace {

std::string
scratchDir(const char *name)
{
    std::string dir = ::testing::TempDir() + "lpo_serve_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    [[maybe_unused]] int rc = std::system(cmd.c_str());
    return dir; // server/spool create the layout themselves
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

/** Parse a response .meta file's key=value lines. */
std::map<std::string, std::string>
readMeta(const Spool &spool, const std::string &id)
{
    std::map<std::string, std::string> meta;
    std::istringstream in(slurp(spool.metaPath(id)));
    std::string line;
    while (std::getline(in, line)) {
        size_t eq = line.find('=');
        if (eq != std::string::npos)
            meta[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return meta;
}

std::string
generatedModuleText(uint64_t seed, unsigned functions, unsigned blocks)
{
    ir::Context ctx;
    corpus::CorpusGenerator generator(ctx);
    auto module = generator.largeModule(seed, functions, blocks);
    return ir::printModule(*module);
}

/**
 * The reference a served response must byte-match: one cold
 * ModuleOptimizer run constructed exactly as Server::optimizerOptions
 * builds its own (service knobs over module-scale verification
 * budgets).
 */
std::string
oneShotOptimize(const std::string &text, const ServeOptions &serve)
{
    ir::Context ctx;
    auto module = ir::parseModule(ctx, text);
    EXPECT_TRUE(static_cast<bool>(module));
    if (!module)
        return {};
    core::ModuleOptOptions options;
    core::PipelineConfig config;
    config.proposer = serve.proposer;
    config.num_threads = serve.threads;
    options.adoptPipeline(std::move(config));
    options.step_budget = serve.step_budget;
    llm::MockModel model(llm::modelByName(serve.model), 1);
    core::ModuleOptimizer optimizer(model, options);
    optimizer.optimize(**module, 1);
    return ir::printModule(**module);
}

class ServeTest : public ::testing::Test
{
  protected:
    void SetUp() override { FailPoints::instance().clear(); }
    void TearDown() override { FailPoints::instance().clear(); }
};

} // namespace

// ---------------------------------------------------------------------
// Spool protocol
// ---------------------------------------------------------------------

TEST_F(ServeTest, SpoolProtocolRoundTrip)
{
    Spool spool(scratchDir("spool"));
    std::string error;
    ASSERT_TRUE(spool.ensureLayout(&error)) << error;

    EXPECT_TRUE(Spool::validId("r001"));
    EXPECT_TRUE(Spool::validId("a.b-c_d"));
    EXPECT_FALSE(Spool::validId(""));
    EXPECT_FALSE(Spool::validId(".hidden"));
    EXPECT_FALSE(Spool::validId("no/slashes"));
    EXPECT_FALSE(Spool::validId("no spaces"));

    ASSERT_TRUE(spool.submit("b", "bytes-b", &error)) << error;
    ASSERT_TRUE(spool.submit("a", "bytes-a", &error)) << error;
    EXPECT_FALSE(spool.submit("../escape", "x", &error));

    // Deterministic (sorted) claim order.
    std::vector<std::string> pending = spool.pendingRequests();
    ASSERT_EQ(pending.size(), 2u);
    EXPECT_EQ(pending[0], "a");
    EXPECT_EQ(pending[1], "b");

    ASSERT_TRUE(spool.claim("a"));
    EXPECT_FALSE(spool.claim("a")); // already claimed
    EXPECT_EQ(spool.pendingRequests().size(), 1u);
    ASSERT_EQ(spool.claimedRequests().size(), 1u);
    EXPECT_EQ(slurp(spool.workPath("a")), "bytes-a");

    // Crash recovery moves claims back to the inbox.
    EXPECT_EQ(spool.recoverClaimed(), 1u);
    EXPECT_EQ(spool.pendingRequests().size(), 2u);
    EXPECT_TRUE(spool.claimedRequests().empty());

    ASSERT_TRUE(spool.claim("a"));
    ASSERT_TRUE(spool.writeResponse("a", "response-a", &error)) << error;
    ASSERT_TRUE(spool.writeMeta("a", "status=ok\n", &error)) << error;
    EXPECT_TRUE(spool.hasResponse("a"));
    EXPECT_TRUE(spool.complete("a"));
    EXPECT_TRUE(spool.claimedRequests().empty());
    EXPECT_EQ(slurp(spool.responsePath("a")), "response-a");

    // sweepLitter removes tmp litter a crash mid-response left
    // behind; ensureLayout must NOT (concurrent submit clients call
    // it and must never unlink the daemon's in-flight staging files).
    std::ofstream litter(spool.outboxDir() + "/x.ll.tmp.123");
    litter << "torn";
    litter.close();
    ASSERT_TRUE(spool.ensureLayout(&error)) << error;
    EXPECT_TRUE(fileExists(spool.outboxDir() + "/x.ll.tmp.123"));
    spool.sweepLitter();
    EXPECT_FALSE(fileExists(spool.outboxDir() + "/x.ll.tmp.123"));
}

// ---------------------------------------------------------------------
// Response correctness
// ---------------------------------------------------------------------

TEST_F(ServeTest, ResponseByteIdenticalToOneShotRun)
{
    std::string text = generatedModuleText(7, 2, 1);
    ServeOptions options;
    options.spool_root = scratchDir("identity");
    options.once = true;
    std::string reference = oneShotOptimize(text, options);
    ASSERT_FALSE(reference.empty());

    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(submitter.submit("req", text, &error)) << error;

    Server server(std::move(options));
    ASSERT_EQ(server.run(), 0);
    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(server.stats().ok, 1u);

    EXPECT_EQ(slurp(server.spool().responsePath("req")), reference);
    std::map<std::string, std::string> meta =
        readMeta(server.spool(), "req");
    EXPECT_EQ(meta["status"], "ok");
    EXPECT_EQ(meta["attempts"], "1");
    EXPECT_EQ(meta["deadline_skipped"], "0");
    // The inbox/work copies are gone; status.json reflects the drain.
    EXPECT_TRUE(server.spool().pendingRequests().empty());
    EXPECT_TRUE(server.spool().claimedRequests().empty());
    std::string status = slurp(server.spool().statusPath());
    EXPECT_NE(status.find("\"stopping\": true"), std::string::npos);
    EXPECT_NE(status.find("\"requests\": 1"), std::string::npos);
}

TEST_F(ServeTest, PoisonRequestIsolatedHealthyOnesStillServed)
{
    ServeOptions options;
    options.spool_root = scratchDir("poison");
    options.once = true;
    std::string text = generatedModuleText(3, 1, 1);

    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(submitter.submit("bad", "this is not ir\n", &error));
    ASSERT_TRUE(submitter.submit("good", text, &error));

    Server server(std::move(options));
    ASSERT_EQ(server.run(), 0);
    EXPECT_EQ(server.stats().requests, 2u);
    EXPECT_EQ(server.stats().ok, 1u);
    EXPECT_EQ(server.stats().errors, 1u);

    // The poison request got a terminal error response (no module
    // bytes), and did not take the server or the healthy request down.
    EXPECT_FALSE(server.spool().hasResponse("bad"));
    std::map<std::string, std::string> meta =
        readMeta(server.spool(), "bad");
    EXPECT_EQ(meta["status"], "error");
    EXPECT_FALSE(meta["error"].empty());
    EXPECT_TRUE(server.spool().hasResponse("good"));
    EXPECT_EQ(readMeta(server.spool(), "good")["status"], "ok");
}

TEST_F(ServeTest, InjectedFaultReplaysToByteIdenticalResponse)
{
    std::string text = generatedModuleText(7, 2, 1);
    ServeOptions options;
    options.spool_root = scratchDir("faultreplay");
    options.once = true;
    std::string reference = oneShotOptimize(text, options);

    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(submitter.submit("req", text, &error)) << error;

    // One injected parser fault: the first attempt is distrusted, the
    // optimizer rebuilt, and the replay must match the fault-free run.
    ASSERT_TRUE(FailPoints::instance().configure("parser.fail=nth:1"));
    Server server(std::move(options));
    ASSERT_EQ(server.run(), 0);
    FailPoints::instance().clear();

    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(server.stats().ok, 1u);
    EXPECT_EQ(server.stats().fault_retries, 1u);
    EXPECT_EQ(server.stats().optimizer_rebuilds, 1u);
    EXPECT_EQ(readMeta(server.spool(), "req")["attempts"], "2");
    EXPECT_EQ(slurp(server.spool().responsePath("req")), reference);
}

// ---------------------------------------------------------------------
// Watchdog, backpressure, recovery, store degradation
// ---------------------------------------------------------------------

TEST_F(ServeTest, StepBudgetWatchdogAnswersPartial)
{
    // Big module + tiny budget: the deadline cuts at a wave boundary
    // and the request is answered as a valid partial result.
    std::string text = generatedModuleText(13, 24, 2);
    ServeOptions options;
    options.spool_root = scratchDir("watchdog");
    options.once = true;
    options.threads = 1;
    options.step_budget = 1;

    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(submitter.submit("req", text, &error)) << error;

    Server server(std::move(options));
    ASSERT_EQ(server.run(), 0);
    EXPECT_EQ(server.stats().requests, 1u);
    EXPECT_EQ(server.stats().partial, 1u);
    EXPECT_EQ(server.stats().errors, 0u);

    std::map<std::string, std::string> meta =
        readMeta(server.spool(), "req");
    EXPECT_EQ(meta["status"], "partial");
    EXPECT_NE(meta["deadline_skipped"], "0");
    // The partial response is still a complete, parseable module.
    std::string response = slurp(server.spool().responsePath("req"));
    ASSERT_FALSE(response.empty());
    ir::Context ctx;
    EXPECT_TRUE(static_cast<bool>(ir::parseModule(ctx, response)));
}

TEST_F(ServeTest, BackpressureShedsBeyondCapacityThenCatchesUp)
{
    std::string text = generatedModuleText(3, 1, 1);
    ServeOptions options;
    options.spool_root = scratchDir("shed");
    options.queue_capacity = 1;
    options.retry_after_ms = 123;
    options.max_requests = 1;
    std::string spool_root = options.spool_root;

    Spool submitter(spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    for (const char *id : {"r1", "r2", "r3"})
        ASSERT_TRUE(submitter.submit(id, text, &error)) << error;

    {
        Server server(std::move(options));
        ASSERT_EQ(server.run(), 0);
        EXPECT_EQ(server.stats().requests, 1u);
        EXPECT_EQ(server.stats().shed, 2u);
    }
    // The overload answers carry an explicit retry hint; the requests
    // themselves stay spooled — shedding never drops work.
    for (const char *id : {"r2", "r3"}) {
        std::map<std::string, std::string> meta = readMeta(submitter, id);
        EXPECT_EQ(meta["status"], "retry") << id;
        EXPECT_EQ(meta["retry_after_ms"], "123") << id;
        EXPECT_EQ(meta["queue_depth"], "3") << id;
        EXPECT_FALSE(submitter.hasResponse(id)) << id;
    }
    EXPECT_TRUE(submitter.hasResponse("r1"));
    ASSERT_EQ(submitter.pendingRequests().size(), 2u);

    // Once capacity frees up, the shed requests are served normally.
    ServeOptions catchup;
    catchup.spool_root = spool_root;
    catchup.once = true;
    Server server(std::move(catchup));
    ASSERT_EQ(server.run(), 0);
    EXPECT_EQ(server.stats().ok, 2u);
    for (const char *id : {"r2", "r3"}) {
        EXPECT_TRUE(submitter.hasResponse(id)) << id;
        EXPECT_EQ(readMeta(submitter, id)["status"], "ok") << id;
    }
}

TEST_F(ServeTest, ClaimedRequestRecoveredAfterCrash)
{
    std::string text = generatedModuleText(7, 2, 1);
    ServeOptions options;
    options.spool_root = scratchDir("recover");
    options.once = true;
    std::string reference = oneShotOptimize(text, options);

    // Simulate a kill -9 between claim and response: the request file
    // sits in work/ with no response on disk.
    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(
        Spool::atomicWrite(submitter.workPath("req"), text, &error))
        << error;

    Server server(std::move(options));
    ASSERT_EQ(server.run(), 0);
    EXPECT_EQ(server.stats().recovered, 1u);
    EXPECT_EQ(server.stats().ok, 1u);
    // At-least-once replay is safe because it is byte-identical.
    EXPECT_EQ(slurp(server.spool().responsePath("req")), reference);
    EXPECT_TRUE(server.spool().claimedRequests().empty());
}

TEST_F(ServeTest, StoreFaultsDegradeToMemoryOnlyServiceContinues)
{
    std::string text = generatedModuleText(7, 2, 1);
    ServeOptions options;
    options.spool_root = scratchDir("degrade");
    options.store_path = scratchDir("degrade_store");
    options.once = true;
    options.fault_retry_limit = 0; // isolate the flush ladder
    options.flush_retry_limit = 2;
    options.flush_backoff_ms = 1;
    ServeOptions memory_only;
    memory_only.spool_root = options.spool_root;
    std::string reference = oneShotOptimize(text, memory_only);

    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(submitter.submit("req", text, &error)) << error;

    // Every journal append fails: the flush ladder retries with
    // backoff, gives up, and flips Persistent -> Degraded — while the
    // request itself is answered correctly (a fresh store's catalog is
    // empty, so the response matches the memory-only reference).
    ASSERT_TRUE(
        FailPoints::instance().configure("store.write.fail=always"));
    Server server(std::move(options));
    ASSERT_EQ(server.run(), 0);
    FailPoints::instance().clear();

    EXPECT_EQ(server.stats().ok, 1u);
    EXPECT_EQ(server.stats().store_health, StoreHealth::Degraded);
    EXPECT_EQ(server.stats().flush_retries, 2u);
    EXPECT_EQ(server.stats().flush_failures, 1u);
    EXPECT_EQ(slurp(server.spool().responsePath("req")), reference);
    std::string status = slurp(server.spool().statusPath());
    EXPECT_NE(status.find("\"store_health\": \"degraded\""),
              std::string::npos);
}

TEST_F(ServeTest, GracefulStopDrainsAndWritesFinalStatus)
{
    std::string text = generatedModuleText(3, 1, 1);
    ServeOptions options;
    options.spool_root = scratchDir("stop");
    options.poll_ms = 10;

    Spool submitter(options.spool_root);
    std::string error;
    ASSERT_TRUE(submitter.ensureLayout(&error)) << error;
    ASSERT_TRUE(submitter.submit("req", text, &error)) << error;

    Server server(std::move(options));
    std::thread stopper([&] {
        // What a SIGTERM handler does, from another thread: wait for
        // the request to be answered, then ask for a graceful stop.
        while (!server.spool().hasResponse("req"))
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        server.requestStop();
    });
    int rc = server.run();
    stopper.join();
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(server.stats().ok, 1u);
    std::string status = slurp(server.spool().statusPath());
    EXPECT_NE(status.find("\"stopping\": true"), std::string::npos);
}
