// End-to-end tests of the real lpo_cli binary (path injected by CMake
// as LPO_CLI_PATH): malformed input must produce a diagnostic and a
// non-zero exit, never a crash; the failpoint surface must be wired.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

struct CommandResult
{
    int exit_code = -1;
    std::string output; ///< stdout + stderr, interleaved
};

CommandResult
run(const std::string &args, const std::string &env_prefix = "")
{
    std::string cmd =
        env_prefix + std::string(LPO_CLI_PATH) + " " + args + " 2>&1";
    CommandResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return result;
    }
    char buffer[512];
    while (size_t n = std::fread(buffer, 1, sizeof buffer, pipe))
        result.output.append(buffer, n);
    int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** Write @p text to a fresh file under the test's temp dir. */
std::string
fixture(const char *name, const std::string &text)
{
    std::string path =
        ::testing::TempDir() + "lpo_cli_fixture_" + name + ".ll";
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
}

const char *kValidModule =
    "define i8 @f(i8 %x) {\n"
    "  %a = mul i8 %x, 8\n"
    "  %b = udiv i8 %a, 4\n"
    "  ret i8 %b\n"
    "}\n";

/** A missed optimization InstCombine does not catch ((x & y) + (x | y)
 *  == x + y), so the sequence survives extraction and the LPO loop
 *  finds a verified rewrite — the store has something to persist. */
const char *kMissedModule =
    "define i32 @f(i32 %x, i32 %y) {\n"
    "  %a = and i32 %x, %y\n"
    "  %o = or i32 %x, %y\n"
    "  %r = add i32 %a, %o\n"
    "  ret i32 %r\n"
    "}\n";

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

} // namespace

TEST(CliTest, MalformedModuleFailsWithDiagnostic)
{
    std::string path = fixture(
        "malformed", "define i8 @f(i8 %x) {\n  %a = frobnicate i8 %x\n");
    for (const char *cmd : {"optimize-module", "run", "opt", "extract"}) {
        CommandResult result = run(std::string(cmd) + " " + path);
        EXPECT_NE(result.exit_code, 0) << cmd;
        EXPECT_NE(result.output.find("error"), std::string::npos)
            << cmd << " printed no diagnostic:\n" << result.output;
    }
}

TEST(CliTest, VerifyRejectsMalformedIrOnEitherSide)
{
    // Both parse (forward references and labels resolve late), but the
    // refinement checker needs well-formed IR: a diagnostic and exit 1,
    // never a crash.
    std::string forward_use = fixture(
        "forward_use", "define i8 @f(i8 %x, i1 %c) {\n"
                       "  %y = add i8 %z, 1\n"
                       "  %z = add i8 %x, 1\n"
                       "  ret i8 %y\n}\n");
    std::string unknown_label = fixture(
        "unknown_label", "define i8 @f(i8 %x, i1 %c) {\n"
                         "entry:\n"
                         "  br i1 %c, label %a, label %nowhere\n"
                         "a:\n"
                         "  ret i8 %x\n}\n");
    std::string identity = fixture(
        "identity", "define i8 @f(i8 %x, i1 %c) {\n  ret i8 %x\n}\n");
    for (const auto &[bad, message] :
         {std::pair{forward_use, "use of value '%z' before definition"},
          std::pair{unknown_label, "unknown label '%nowhere'"}}) {
        for (const std::string &args :
             {bad + " " + identity, identity + " " + bad}) {
            CommandResult result = run("verify " + args);
            EXPECT_EQ(result.exit_code, 1) << args << "\n" << result.output;
            EXPECT_NE(result.output.find("error: " + bad + ": " + message),
                      std::string::npos)
                << args << "\n" << result.output;
        }
    }
    CommandResult same = run("verify " + identity + " " + identity);
    EXPECT_EQ(same.exit_code, 0) << same.output;
}

TEST(CliTest, TruncatedAndEmptyModules)
{
    std::string truncated =
        fixture("truncated", "define i8 @f(i8 %x) {\n  %a = add i8 ");
    CommandResult result = run("optimize-module " + truncated);
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("error"), std::string::npos);

    // The parser requires at least one definition, so an empty file is
    // a diagnosed error too — never a crash.
    std::string empty = fixture("empty", "");
    CommandResult empty_result = run("optimize-module " + empty);
    EXPECT_NE(empty_result.exit_code, 0);
    EXPECT_NE(empty_result.output.find("error"), std::string::npos)
        << empty_result.output;

    CommandResult missing = run("optimize-module /no/such/file.ll");
    EXPECT_NE(missing.exit_code, 0);
    EXPECT_NE(missing.output.find("cannot open"), std::string::npos);
}

TEST(CliTest, ValidModuleOptimizesCleanly)
{
    std::string path = fixture("valid", kValidModule);
    CommandResult result = run("optimize-module " + path);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("patched"), std::string::npos);

    // --profile alone explains the run: the solver work and the
    // degradation ladder are reported even when all-zero.
    CommandResult profiled = run("optimize-module " + path + " --profile");
    EXPECT_EQ(profiled.exit_code, 0) << profiled.output;
    EXPECT_NE(profiled.output.find("\nsat: "), std::string::npos)
        << profiled.output;
    EXPECT_NE(profiled.output.find("\ndegradation: "), std::string::npos)
        << profiled.output;
}

TEST(CliTest, UnusableStorePathDegradesGracefully)
{
    // Satellite contract: a store path that cannot be created must not
    // fail the run — one stderr warning, then memory-only, exit 0.
    std::string path = fixture("storefall", kValidModule);
    std::string blocker = ::testing::TempDir() + "lpo_cli_store_blocker";
    {
        std::ofstream out(blocker, std::ios::trunc);
        out << "not a directory\n";
    }
    CommandResult result = run("optimize-module " + path +
                               " --store=" + blocker + "/sub");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("continuing without persistence"),
              std::string::npos)
        << result.output;
    // Exactly one warning — not one per sequence or per flush.
    size_t first = result.output.find("lpo: warning:");
    ASSERT_NE(first, std::string::npos) << result.output;
    EXPECT_EQ(result.output.find("lpo: warning:", first + 1),
              std::string::npos)
        << result.output;
}

TEST(CliTest, StoreRoundTripReplaysFromCatalog)
{
    std::string path = fixture("storehot", kMissedModule);
    std::string dir = ::testing::TempDir() + "lpo_cli_store_rt";
    std::string cold_ll = ::testing::TempDir() + "lpo_cli_cold.ll";
    std::string warm_ll = ::testing::TempDir() + "lpo_cli_warm.ll";
    // Make the cold run genuinely cold across test re-runs.
    std::remove((dir + "/verify.lpo").c_str());
    std::remove((dir + "/catalog.lpo").c_str());

    CommandResult cold =
        run("optimize-module " + path + " --proposer=hybrid --store=" +
            dir + " --emit=" + cold_ll);
    EXPECT_EQ(cold.exit_code, 0) << cold.output;
    EXPECT_NE(cold.output.find("(catalog 0, llm 1, egraph 0)"),
              std::string::npos)
        << cold.output;
    EXPECT_NE(cold.output.find("store:"), std::string::npos)
        << cold.output;

    // Warm run: the catalog replays the rewrite (zero LLM calls), the
    // persisted verdict hits the cache, and the patched module text is
    // byte-identical to the cold run's.
    CommandResult warm =
        run("optimize-module " + path + " --proposer=hybrid --store=" +
            dir + " --emit=" + warm_ll);
    EXPECT_EQ(warm.exit_code, 0) << warm.output;
    EXPECT_NE(warm.output.find("(catalog 1, llm 0, egraph 0)"),
              std::string::npos)
        << warm.output;
    EXPECT_NE(warm.output.find("llm-calls=0"), std::string::npos)
        << warm.output;
    std::string cold_text = slurp(cold_ll);
    ASSERT_FALSE(cold_text.empty());
    EXPECT_EQ(cold_text, slurp(warm_ll));

    CommandResult check = run("store verify " + dir);
    EXPECT_EQ(check.exit_code, 0) << check.output;
    EXPECT_NE(check.output.find("store: OK"), std::string::npos)
        << check.output;
}

// One function with a missed optimization, one where nothing is
// found: the cold run learns a rewrite and remembers a miss, and every
// surface reports the two kinds apart.
TEST(CliTest, StoreReportsRewritesAndMissesSeparately)
{
    std::string path = fixture(
        "storemiss", std::string(kMissedModule) +
                         "\ndefine i32 @g(i32 %x, i32 %y) {\n"
                         "  %a = add i32 %x, %y\n"
                         "  %b = mul i32 %a, %y\n"
                         "  %c = xor i32 %b, %x\n"
                         "  ret i32 %c\n"
                         "}\n");
    std::string dir = ::testing::TempDir() + "lpo_cli_store_miss";
    std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    const std::string args =
        "optimize-module " + path + " --proposer=hybrid --store=" + dir;
    CommandResult cold = run(args);
    ASSERT_EQ(cold.exit_code, 0) << cold.output;
    EXPECT_NE(cold.output.find("1 + 1 + 1 flushed"), std::string::npos)
        << cold.output;

    CommandResult info = run("store info " + dir);
    EXPECT_EQ(info.exit_code, 0) << info.output;
    EXPECT_NE(info.output.find("2 record(s) (1 rewrite(s), 1 miss(es))"),
              std::string::npos)
        << info.output;

    CommandResult warm = run(args + " --profile");
    ASSERT_EQ(warm.exit_code, 0) << warm.output;
    for (const char *expect :
         {"1 verdicts + 1 rewrites + 1 misses loaded", "llm-calls=0",
          "egraph-consults=0", "miss-replays=1", "\nmiss-replay ",
          "replay: 2 of 2 cases (1 catalog rewrites, 1 remembered misses)"})
        EXPECT_NE(warm.output.find(expect), std::string::npos)
            << expect << "\n"
            << warm.output;
}

TEST(CliTest, StoreInfoReportsQuarantineSidecarBytes)
{
    std::string path = fixture("storequar", kMissedModule);
    std::string dir = ::testing::TempDir() + "lpo_cli_store_quar";
    std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    CommandResult seed = run("optimize-module " + path +
                             " --proposer=hybrid --store=" + dir);
    ASSERT_EQ(seed.exit_code, 0) << seed.output;

    // A healthy store reports an empty (absent) sidecar for each file.
    CommandResult info = run("store info " + dir);
    EXPECT_EQ(info.exit_code, 0) << info.output;
    size_t first =
        info.output.find("quarantine sidecar 0 byte(s)");
    ASSERT_NE(first, std::string::npos) << info.output;
    EXPECT_NE(info.output.find("quarantine sidecar 0 byte(s)",
                               first + 1),
              std::string::npos)
        << info.output;

    // Sidecar growth (here: planted corruption evidence) is surfaced
    // so an operator sees the store has been quarantining records.
    {
        std::ofstream sidecar(dir + "/verify.lpo.quarantine",
                              std::ios::binary | std::ios::trunc);
        sidecar << "junkbytes";
    }
    CommandResult after = run("store info " + dir);
    EXPECT_EQ(after.exit_code, 0) << after.output;
    EXPECT_NE(after.output.find("quarantine sidecar 9 byte(s)"),
              std::string::npos)
        << after.output;
}

TEST(CliTest, FailpointsSubcommandListsSites)
{
    CommandResult result = run("failpoints");
    EXPECT_EQ(result.exit_code, 0);
    for (const char *site : {"sat.exhaust", "bitblast.throw",
                             "parser.fail", "patchback.fail"})
        EXPECT_NE(result.output.find(site), std::string::npos)
            << "missing site " << site << " in:\n" << result.output;
    // Each line carries the live hit/fire counters from the metrics
    // registry: "<site> hits=N fires=M". The subcommand is its own
    // process, so in an unarmed listing every counter is zero — and
    // scripts that only want names take column 1.
    EXPECT_NE(result.output.find("sat.exhaust hits=0 fires=0"),
              std::string::npos)
        << result.output;
    size_t lines = 0;
    size_t counted = 0;
    for (size_t pos = 0; pos < result.output.size();) {
        size_t eol = result.output.find('\n', pos);
        if (eol == std::string::npos)
            break;
        std::string line = result.output.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        ++lines;
        if (line.find(" hits=") != std::string::npos &&
            line.find(" fires=") != std::string::npos)
            ++counted;
    }
    EXPECT_GE(lines, 13u);
    EXPECT_EQ(lines, counted) << result.output;
}

TEST(CliTest, TracedRunIsByteIdenticalAndEmitsArtifacts)
{
    std::string path = fixture("traced", kMissedModule);
    std::string plain_ll = ::testing::TempDir() + "lpo_cli_plain.ll";
    std::string traced_ll = ::testing::TempDir() + "lpo_cli_traced.ll";
    std::string trace_json = ::testing::TempDir() + "lpo_cli_trace.json";
    std::string metrics_json =
        ::testing::TempDir() + "lpo_cli_metrics.json";

    CommandResult plain = run("optimize-module " + path +
                              " --proposer=hybrid --emit=" + plain_ll);
    EXPECT_EQ(plain.exit_code, 0) << plain.output;
    CommandResult traced = run(
        "optimize-module " + path + " --proposer=hybrid --emit=" +
        traced_ll + " --trace=" + trace_json + " --metrics=" +
        metrics_json + " --profile");
    EXPECT_EQ(traced.exit_code, 0) << traced.output;

    // The tentpole invariant, end to end through the real binary: the
    // emitted module is byte-identical with and without observability.
    std::string plain_text = slurp(plain_ll);
    ASSERT_FALSE(plain_text.empty());
    EXPECT_EQ(plain_text, slurp(traced_ll));

    // The trace holds balanced spans for the pipeline phases.
    std::string trace = slurp(trace_json);
    ASSERT_FALSE(trace.empty());
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // Patch-back streams inside the pipeline's reorder drain (timed by
    // phase.patch_ns), so there is no standalone "patch" span.
    for (const char *span : {"\"optimize-module\"", "\"extract\"",
                             "\"propose\"", "\"verify\"", "\"dce\""})
        EXPECT_NE(trace.find(span), std::string::npos)
            << "missing span " << span;
    // B and E counts balance (each quoted phase token appears once per
    // event object).
    size_t begins = 0, ends = 0;
    for (size_t pos = trace.find("\"ph\": \"B\"");
         pos != std::string::npos;
         pos = trace.find("\"ph\": \"B\"", pos + 1))
        ++begins;
    for (size_t pos = trace.find("\"ph\": \"E\"");
         pos != std::string::npos;
         pos = trace.find("\"ph\": \"E\"", pos + 1))
        ++ends;
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);

    // The metrics snapshot carries the per-module latency histogram
    // with its percentiles, and the phase histograms.
    std::string metrics = slurp(metrics_json);
    ASSERT_FALSE(metrics.empty());
    for (const char *key :
         {"\"module.latency_ns\"", "\"phase.verify_ns\"", "\"p50\"",
          "\"p99\"", "\"counters\"", "\"histograms\""})
        EXPECT_NE(metrics.find(key), std::string::npos)
            << "missing key " << key;

    // --profile prints the per-phase table after the summary.
    EXPECT_NE(traced.output.find("profile (wall time per phase):"),
              std::string::npos)
        << traced.output;
    for (const char *row : {"\nextract", "\npropose", "\nopt", "\nverify",
                            "\ncase", "\npatch", "\ndce", "\ntotal"})
        EXPECT_NE(traced.output.find(row), std::string::npos)
            << "missing profile row " << (row + 1);

    // ... followed by the scheduler columns.
    EXPECT_NE(
        traced.output.find("scheduler (work-stealing task graph):"),
        std::string::npos)
        << traced.output;
    for (const char *column :
         {"tasks run", "steals", "steal attempts", "max queue depth",
          "idle ms"})
        EXPECT_NE(traced.output.find(column), std::string::npos)
            << "missing scheduler column " << column;

    // Without the flags, none of the new output appears (the default
    // summary stays byte-compatible with pre-observability builds).
    EXPECT_EQ(plain.output.find("profile ("), std::string::npos);
}

TEST(CliTest, GenModuleIsDeterministic)
{
    CommandResult one = run("gen-module 9 6 2");
    CommandResult two = run("gen-module 9 6 2");
    EXPECT_EQ(one.exit_code, 0);
    EXPECT_NE(one.output.find("define"), std::string::npos)
        << one.output;
    EXPECT_EQ(one.output, two.output);
    // Defaults (1 48 3) produce the benchmark-scale module.
    CommandResult def = run("gen-module");
    EXPECT_EQ(def.exit_code, 0);
    size_t defines = 0;
    for (size_t pos = def.output.find("define");
         pos != std::string::npos;
         pos = def.output.find("define", pos + 6))
        ++defines;
    EXPECT_EQ(defines, 48u);
    CommandResult bad = run("gen-module nope");
    EXPECT_NE(bad.exit_code, 0);
}

TEST(CliTest, EnvFailpointsDegradeGracefully)
{
    // The environment pathway end-to-end: with patch-back refused the
    // run still exits 0 and reports its failures instead of crashing.
    std::string path = fixture("envfp", kValidModule);
    CommandResult result =
        run("optimize-module " + path + " --profile",
            "LPO_FAILPOINTS=patchback.fail=always ");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("patched 0 rewrite"), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("\nsat: "), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("\ndegradation: "), std::string::npos)
        << result.output;

    // A bad spec is reported and ignored, never fatal.
    CommandResult bad =
        run("failpoints", "LPO_FAILPOINTS=definitely.not.a.site=always ");
    EXPECT_EQ(bad.exit_code, 0);
    EXPECT_NE(bad.output.find("ignoring LPO_FAILPOINTS"),
              std::string::npos)
        << bad.output;
}
