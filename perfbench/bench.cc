#include "bench.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "interp/exec_plan.h"
#include "support/rng.h"

namespace perfbench {

uint64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return uint64_t(ts.tv_sec) * 1'000'000'000ull + uint64_t(ts.tv_nsec);
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

namespace {
thread_local uint32_t t_depth = 0;
thread_local uint64_t t_generation = 0;
thread_local uint32_t t_tid = 0;
} // namespace

SpanLog &
SpanLog::instance()
{
    static SpanLog *log = new SpanLog();
    return *log;
}

uint32_t
SpanLog::threadId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (t_generation != generation_) {
        t_generation = generation_;
        t_tid = next_tid_++;
    }
    return t_tid;
}

void
SpanLog::reset(uint32_t first_tid)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    next_tid_ = first_tid;
    ++generation_;
}

void
SpanLog::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanLog::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.swap(spans_);
    return out;
}

SpanLog::Scope::Scope(const char *name, bool replay)
    : name_(name), replay_(replay), active_(SpanLog::instance().enabled())
{
    if (!active_)
        return;
    depth_ = t_depth++;
    start_ = nowNs();
}

SpanLog::Scope::~Scope()
{
    if (!active_)
        return;
    uint64_t end = nowNs();
    --t_depth;
    SpanLog &log = SpanLog::instance();
    Span span;
    span.name = name_;
    span.tid = log.threadId();
    span.depth = depth_;
    span.start_ns = start_;
    span.end_ns = end;
    span.replay = replay_;
    log.add(std::move(span));
}

std::string
encodeSpans(const std::vector<Span> &spans)
{
    std::string out;
    char line[256];
    for (const Span &s : spans) {
        std::snprintf(line, sizeof line, "span %s %u %u %" PRIu64 " %" PRIu64
                      " %d\n",
                      s.name.c_str(), s.tid, s.depth, s.start_ns, s.end_ns,
                      s.replay ? 1 : 0);
        out += line;
    }
    return out;
}

std::vector<Span>
decodeSpans(const std::string &text)
{
    std::vector<Span> spans;
    std::istringstream in(text);
    std::string tag;
    while (in >> tag) {
        if (tag != "span") {
            std::string rest;
            std::getline(in, rest);
            continue;
        }
        Span s;
        int replay = 0;
        in >> s.name >> s.tid >> s.depth >> s.start_ns >> s.end_ns >> replay;
        s.replay = replay != 0;
        spans.push_back(std::move(s));
    }
    return spans;
}

namespace {

/** Spans of one thread in nesting order: start ascending, longer first. */
std::map<uint32_t, std::vector<const Span *>>
byThread(const std::vector<Span> &spans)
{
    std::map<uint32_t, std::vector<const Span *>> threads;
    for (const Span &s : spans)
        threads[s.tid].push_back(&s);
    for (auto &[tid, list] : threads)
        std::sort(list.begin(), list.end(),
                  [](const Span *a, const Span *b) {
                      if (a->start_ns != b->start_ns)
                          return a->start_ns < b->start_ns;
                      return a->end_ns > b->end_ns;
                  });
    return threads;
}

void
appendJsonString(std::string &out, const std::string &text)
{
    out += '"';
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

} // namespace

std::string
chromeTrace(const std::vector<Span> &spans, uint64_t origin_ns)
{
    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    char buf[160];
    auto event = [&](const Span &s, char phase, uint64_t ts) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": ";
        appendJsonString(out, s.name);
        std::snprintf(buf, sizeof buf,
                      ", \"cat\": \"%s\", \"ph\": \"%c\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f",
                      s.replay ? "replay" : "layer", phase, s.tid,
                      double(ts - std::min(ts, origin_ns)) / 1000.0);
        out += buf;
        if (phase == 'E' && s.replay)
            out += ", \"args\": {\"replay\": 1}";
        out += "}";
    };
    for (const auto &[tid, list] : byThread(spans)) {
        if (!first)
            out += ",\n";
        first = false;
        std::snprintf(buf, sizeof buf,
                      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                      "\"tid\": %u, \"args\": {\"name\": \"%s-%u\"}}",
                      tid, tid == 1 ? "loadgen" : "worker", tid);
        out += buf;
        std::vector<const Span *> open;
        for (const Span *s : list) {
            while (!open.empty() && open.back()->end_ns <= s->start_ns) {
                event(*open.back(), 'E', open.back()->end_ns);
                open.pop_back();
            }
            event(*s, 'B', s->start_ns);
            open.push_back(s);
        }
        while (!open.empty()) {
            event(*open.back(), 'E', open.back()->end_ns);
            open.pop_back();
        }
    }
    out += "\n]}\n";
    return out;
}

SpanTotals
summarizeSpans(const std::vector<Span> &spans, uint32_t main_tid,
               uint64_t window_start, uint64_t window_end)
{
    SpanTotals totals;
    for (const auto &[tid, list] : byThread(spans)) {
        std::vector<std::pair<const Span *, double>> open; // span, self ms
        auto close = [&]() {
            auto [s, self] = open.back();
            open.pop_back();
            totals.self_ms[s->name] += self;
        };
        for (const Span *s : list) {
            while (!open.empty() && open.back().first->end_ns <= s->start_ns)
                close();
            double ms = double(s->end_ns - s->start_ns) / 1e6;
            if (!open.empty()) {
                uint64_t end = std::min(s->end_ns, open.back().first->end_ns);
                open.back().second -= double(end - s->start_ns) / 1e6;
            }
            totals.total_ms[s->name] += ms;
            ++totals.count[s->name];
            open.push_back({s, ms});
            if (tid == main_tid && s->depth == 0 && !s->replay) {
                uint64_t a = std::max(s->start_ns, window_start);
                uint64_t b = std::min(s->end_ns, window_end);
                if (b > a)
                    totals.top_level_ms += double(b - a) / 1e6;
            }
        }
        while (!open.empty())
            close();
    }
    return totals;
}

// ---------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------

namespace {
size_t
rankIndex(size_t n, double q)
{
    double rank = std::ceil(q * double(n));
    size_t index = rank < 1 ? 0 : size_t(rank) - 1;
    return std::min(index, n - 1);
}
} // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    size_t index = rankIndex(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + index, samples.end());
    return samples[index];
}

size_t
samplesBeyond(size_t n, double q)
{
    return n == 0 ? 0 : n - (rankIndex(n, q) + 1);
}

double
tailQuantile(size_t n)
{
    for (double q : {0.999, 0.99, 0.9})
        if (samplesBeyond(n, q) >= 10)
            return q;
    return 0.5;
}

std::string
quantileLabel(double q)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", q * 100);
    return buf;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

void
Report::print(const char *heading) const
{
    std::printf("%s\n", heading);
    for (const auto &[name, metric] : metrics_)
        std::printf("  %-32s %16.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

void
printResultLine(bool correct, uint64_t attempted, uint64_t failed,
                const Report &report)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    bool first = true;
    for (const auto &[name, m] : report.metrics()) {
        double v = std::isfinite(m.value) ? m.value : 0.0;
        if (!first)
            out += ", ";
        first = false;
        appendJsonString(out, name);
        std::snprintf(buf, sizeof buf, ": {\"value\": %.17g, \"unit\": ", v);
        out += buf;
        appendJsonString(out, m.unit);
        out += "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

void
printPercentile(const char *name, const std::vector<double> &samples,
                double q)
{
    double max = samples.empty()
                     ? 0
                     : *std::max_element(samples.begin(), samples.end());
    std::printf("  %-28s %12.3f ms  (%s of n=%zu, %zu beyond, max %.3f, "
                "tail rule allows %s)\n",
                name, percentile(samples, q), quantileLabel(q).c_str(),
                samples.size(), samplesBeyond(samples.size(), q), max,
                quantileLabel(tailQuantile(samples.size())).c_str());
}

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

#ifndef LPO_BENCH_BUILD_TYPE
#define LPO_BENCH_BUILD_TYPE "unknown"
#endif

void
printFingerprint(const std::string &revision, const std::string &workload,
                 unsigned workers)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(colon + 2);
            break;
        }
    }
    std::printf("fingerprint: nproc=%ld cpu=\"%s\" compiler=\"%s\" "
                "build=%s revision=%s workload=%s workers=%u loadgen=1\n",
                sysconf(_SC_NPROCESSORS_ONLN), cpu.c_str(), __VERSION__,
                LPO_BENCH_BUILD_TYPE, revision.c_str(), workload.c_str(),
                workers);
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// ---------------------------------------------------------------------
// Forwarding client
// ---------------------------------------------------------------------

lpo::llm::LlmResponse
TracedClient::complete(const lpo::llm::LlmRequest &request)
{
    SpanLog::Scope span("proposer.llm.complete");
    return inner_.complete(request);
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

namespace {

using lpo::interp::ExecFrame;
using lpo::interp::ExecPlan;
using lpo::interp::ExecutionInput;
using lpo::interp::LaneValue;
using lpo::interp::PlanResult;

bool
violates(const PlanResult &src, const PlanResult &tgt)
{
    if (src.ub)
        return false;
    if (tgt.ub)
        return true;
    if (!src.has_ret || !tgt.has_ret)
        return src.has_ret != tgt.has_ret;
    if (src.ret_lanes != tgt.ret_lanes)
        return true;
    for (uint32_t lane = 0; lane < src.ret_lanes; ++lane) {
        const LaneValue &s = src.ret[lane];
        const LaneValue &t = tgt.ret[lane];
        if (s.poison)
            continue;
        if (t.poison)
            return true;
        if (s.is_fp) {
            if (std::isnan(s.fp) && std::isnan(t.fp))
                continue;
            uint64_t sb, tb;
            std::memcpy(&sb, &s.fp, 8);
            std::memcpy(&tb, &t.fp, 8);
            if (sb != tb)
                return true;
        } else if (s.bits.zext() != t.bits.zext()) {
            return true;
        }
    }
    return false;
}

uint64_t
intSample(lpo::Rng &rng, unsigned width)
{
    uint64_t mask = width >= 64 ? ~0ull : (1ull << width) - 1;
    switch (rng.nextBelow(8)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return mask;                            // -1
    case 3: return (mask >> 1) + 1;                 // signed min
    case 4: return mask >> 1;                       // signed max
    case 5: return rng.nextBelow(16);
    default: return rng.next() & mask;
    }
}

double
fpSample(lpo::Rng &rng)
{
    static const double specials[] = {
        0.0, -0.0, 1.0, -1.0, 0.5,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min()};
    if (rng.chance(0.4))
        return specials[rng.nextBelow(std::size(specials))];
    return (rng.nextDouble() - 0.5) * 4096.0;
}

ExecutionInput
sampleInput(const lpo::ir::Function &fn, lpo::Rng &rng)
{
    ExecutionInput input;
    for (const auto &arg : fn.args()) {
        const lpo::ir::Type *type = arg->type();
        if (type->isPtr()) {
            int id = static_cast<int>(input.memory.size());
            lpo::interp::MemoryObject object;
            object.bytes.resize(64);
            for (uint8_t &byte : object.bytes)
                byte = static_cast<uint8_t>(rng.next());
            input.memory.push_back(std::move(object));
            input.args.push_back({{LaneValue::ofPtr(id, 0)}});
            continue;
        }
        unsigned lanes = type->isVector() ? type->lanes() : 1;
        const lpo::ir::Type *scalar = type->scalarType();
        lpo::interp::RtValue value;
        for (unsigned lane = 0; lane < lanes; ++lane) {
            if (scalar->isFloat())
                value.lanes.push_back(LaneValue::ofFP(fpSample(rng)));
            else
                value.lanes.push_back(LaneValue::ofInt(lpo::APInt(
                    scalar->intWidth(), intSample(rng, scalar->intWidth()))));
        }
        input.args.push_back(std::move(value));
    }
    return input;
}

bool
hasWideSignedWrap(const lpo::ir::Function &fn)
{
    for (const auto &block : fn.blocks())
        for (const auto &inst : block->instructions())
            if ((inst->op() == lpo::ir::Opcode::Add ||
                 inst->op() == lpo::ir::Opcode::Sub) &&
                inst->flags().nsw &&
                inst->type()->scalarType()->intWidth() == 64)
                return true;
    return false;
}

} // namespace

Replay
replayRefines(const lpo::ir::Function &before, const lpo::ir::Function &after,
              uint64_t seed, unsigned samples)
{
    if (before.numArgs() != after.numArgs() ||
        before.returnType() != after.returnType())
        return Replay::Mismatch;
    for (unsigned i = 0; i < before.numArgs(); ++i)
        if (before.arg(i)->type() != after.arg(i)->type())
            return Replay::Mismatch;
    if (hasWideSignedWrap(before))
        return Replay::Unchecked;
    const ExecPlan src = ExecPlan::compile(before);
    const ExecPlan tgt = ExecPlan::compile(after);
    ExecFrame src_frame = src.makeFrame();
    ExecFrame tgt_frame = tgt.makeFrame();
    if (src.exhaustiveCapable() && src.inputBits() <= 16) {
        for (uint64_t index = 0; index < (uint64_t(1) << src.inputBits());
             ++index)
            if (violates(src.runExhaustive(src_frame, index),
                         tgt.runExhaustive(tgt_frame, index)))
                return Replay::Mismatch;
        return Replay::Refines;
    }
    lpo::Rng rng(mix(seed));
    for (unsigned n = 0; n < samples; ++n) {
        ExecutionInput input = sampleInput(before, rng);
        if (violates(src.run(src_frame, input), tgt.run(tgt_frame, input)))
            return Replay::Mismatch;
    }
    return Replay::Refines;
}

} // namespace perfbench
