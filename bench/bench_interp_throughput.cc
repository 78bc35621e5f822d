/**
 * @file
 * Interpreter throughput: ExecPlan's inputs per second on 16-bit
 * exhaustive verification sweeps (the workload checkWithTesting runs
 * per candidate), compiling once and reusing one frame. The timed
 * sweep folds only lane 0 of each result; an untimed second sweep
 * folds UB and every return lane's poison flag and bits into a
 * checksum that must equal the case's pinned value, so a wrong answer
 * fails the benchmark. Emits BENCH_interp.json for CI.
 */
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/json_writer.h"
#include "interp/exec_plan.h"
#include "ir/parser.h"

using namespace lpo;
using Clock = std::chrono::steady_clock;

namespace {

struct BenchCase
{
    const char *name;
    const char *text;
    /** Result checksum over the whole sweep, pinned at commit 33a5c89
     *  where the tree-walking interpreter ExecPlan replaced agreed. */
    uint64_t checksum;
};

// Representative straight-line sequences with a 16-bit input space,
// shaped like the extractor's wrapped candidates.
const BenchCase kCases[] = {
    {"i8x2_arith_chain",
     "define i8 @f(i8 %x, i8 %y) {\n"
     "  %a = add i8 %x, %y\n"
     "  %m = mul i8 %a, 3\n"
     "  %s = sub i8 %m, %x\n"
     "  %o = or i8 %s, 1\n"
     "  %r = xor i8 %o, %y\n"
     "  ret i8 %r\n}\n",
     0xd923025e04272325ull},
    {"i8x2_flags_poison",
     "define i8 @f(i8 %x, i8 %y) {\n"
     "  %a = add nsw i8 %x, 1\n"
     "  %s = shl nuw i8 %a, 1\n"
     "  %c = icmp slt i8 %s, %y\n"
     "  %r = select i1 %c, i8 %s, i8 %y\n"
     "  ret i8 %r\n}\n",
     0x2208ad8fd7954225ull},
    {"i16_bit_tricks",
     "define i16 @f(i16 %x) {\n"
     "  %n = sub i16 0, %x\n"
     "  %a = and i16 %x, %n\n"
     "  %p = tail call i16 @llvm.ctpop.i16(i16 %a)\n"
     "  %z = tail call i16 @llvm.ctlz.i16(i16 %x, i1 0)\n"
     "  %r = add i16 %p, %z\n"
     "  ret i16 %r\n}\n",
     0xbb068779bd0eddfdull},
    {"v2i8_vector_clamp",
     "define <2 x i8> @f(<2 x i8> %x) {\n"
     "  %c = icmp slt <2 x i8> %x, zeroinitializer\n"
     "  %m = tail call <2 x i8> @llvm.umin.v2i8(<2 x i8> %x, "
     "<2 x i8> splat (i8 100))\n"
     "  %r = select <2 x i1> %c, <2 x i8> zeroinitializer, "
     "<2 x i8> %m\n"
     "  ret <2 x i8> %r\n}\n",
     0x4d0f741dc9fee47dull},
};

uint64_t
fold(uint64_t hash, uint64_t word)
{
    return (hash ^ word) * 0x100000001b3ull;
}

struct CaseResult
{
    std::string name;
    uint64_t inputs = 0;
    double seconds = 0;
    uint64_t check = 0; ///< fold of results, defeats dead-code elim
};

CaseResult
runCase(const BenchCase &bench)
{
    ir::Context ctx;
    auto parsed = ir::parseFunction(ctx, bench.text);
    if (!parsed.ok()) {
        std::fprintf(stderr, "parse failed for %s\n", bench.name);
        std::exit(1);
    }
    const ir::Function &fn = **parsed;

    CaseResult result;
    result.name = bench.name;
    auto start = Clock::now();
    interp::ExecPlan plan = interp::ExecPlan::compile(fn);
    interp::ExecFrame frame = plan.makeFrame();
    result.inputs = uint64_t(1) << plan.inputBits();
    for (uint64_t i = 0; i < result.inputs; ++i) {
        interp::PlanResult r = plan.runExhaustive(frame, i);
        result.check += r.ub ? 1 : (r.has_ret ? r.ret[0].bits.zext() : 0);
    }
    result.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    uint64_t checksum = 0xcbf29ce484222325ull;
    for (uint64_t i = 0; i < result.inputs; ++i) {
        interp::PlanResult r = plan.runExhaustive(frame, i);
        checksum = fold(checksum, r.ub);
        if (r.ub)
            continue;
        for (uint32_t lane = 0; lane < r.ret_lanes; ++lane)
            checksum = fold(checksum, r.ret[lane].poison
                                          ? ~uint64_t(0)
                                          : r.ret[lane].bits.zext());
    }
    if (checksum != bench.checksum) {
        std::fprintf(stderr,
                     "WRONG RESULT on %s: checksum 0x%016llx, "
                     "pinned 0x%016llx\n",
                     bench.name, static_cast<unsigned long long>(checksum),
                     static_cast<unsigned long long>(bench.checksum));
        std::exit(1);
    }
    return result;
}

} // namespace

int
main()
{
    std::vector<CaseResult> results;
    for (const BenchCase &bench : kCases)
        results.push_back(runCase(bench));

    std::printf("%-22s %10s %14s\n", "case", "inputs", "plan in/s");
    core::JsonWriter json;
    json.beginObject();
    json.key("benchmarks").beginArray();
    for (const CaseResult &r : results) {
        double ips = r.inputs / r.seconds;
        std::printf("%-22s %10llu %14.0f\n", r.name.c_str(),
                    static_cast<unsigned long long>(r.inputs), ips);
        json.beginObject(core::JsonWriter::Layout::Inline);
        json.field("name", r.name);
        json.field("inputs", r.inputs);
        json.field("plan_inputs_per_sec", ips, 0);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    std::ofstream out("BENCH_interp.json");
    out << json.str() << "\n";
    std::printf("wrote BENCH_interp.json\n");
    return 0;
}
