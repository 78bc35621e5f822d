#include "llm/mock_model.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>

#include "ir/parser.h"
#include "ir/pattern.h"
#include "ir/printer.h"
#include "llm/prompt.h"
#include "llm/rewrite_library.h"
#include "support/rng.h"
#include "support/string_utils.h"

namespace lpo::llm {

namespace {

bool
hasVectorType(const ir::Function &fn)
{
    for (const auto &arg : fn.args())
        if (arg->type()->isVector())
            return true;
    for (const auto &bb : fn.blocks())
        for (const auto &inst : bb->instructions())
            if (inst->type()->isVector())
                return true;
    return false;
}

/** @p digits (a decimal magnitude too large for long) minus one. */
std::string
decrementDigits(std::string digits)
{
    size_t i = digits.size();
    while (digits[--i] == '0')
        digits[i] = '9';
    --digits[i];
    if (digits.size() > 1 && digits[0] == '0')
        digits.erase(0, 1);
    return digits;
}

} // namespace

std::string
injectSyntaxError(const std::string &text)
{
    // Turn "%x = [tail ]call <ty> @llvm.NAME.SUFFIX(<ty> a, <ty> b)"
    // into "%x = NAME <ty> a, b" — the exact hallucination of Fig. 3b.
    size_t call_pos = text.find("call ");
    size_t at_pos = text.find("@llvm.", call_pos);
    if (call_pos != std::string::npos && at_pos != std::string::npos) {
        size_t name_begin = at_pos + 6;
        size_t name_end = name_begin;
        while (name_end < text.size() &&
               (std::isalpha(static_cast<unsigned char>(text[name_end])) ||
                text[name_end] == '.'))
            ++name_end;
        std::string sym = text.substr(name_begin, name_end - name_begin);
        // Base name without the type suffix ("umin.i32" -> "umin").
        size_t dot = sym.find('.');
        std::string base = dot == std::string::npos ? sym
                                                    : sym.substr(0, dot);
        size_t line_begin = text.rfind('\n', call_pos);
        line_begin = line_begin == std::string::npos ? 0 : line_begin + 1;
        size_t tail_pos = text.rfind("tail call", call_pos);
        size_t stmt_pos = (tail_pos != std::string::npos &&
                           tail_pos >= line_begin)
                              ? tail_pos
                              : call_pos;
        size_t open = text.find('(', at_pos);
        size_t close = text.find(')', open);
        if (open != std::string::npos && close != std::string::npos) {
            std::string args = text.substr(open + 1, close - open - 1);
            // Drop the per-argument types after the first one so the
            // result reads like a malformed binary op.
            std::string replacement = base + " " + args;
            return text.substr(0, stmt_pos) + replacement +
                   text.substr(close + 1);
        }
    }
    // No intrinsic call: misspell the first opcode after an '='.
    size_t eq = text.find("= ");
    if (eq != std::string::npos) {
        size_t op_begin = eq + 2;
        size_t op_end = op_begin;
        while (op_end < text.size() &&
               std::isalpha(static_cast<unsigned char>(text[op_end])))
            ++op_end;
        return text.substr(0, op_begin) + "v" +
               text.substr(op_begin, op_end - op_begin) +
               text.substr(op_end);
    }
    return text + "\n%broken";
}

std::string
injectSemanticError(const std::string &text)
{
    // Perturb the last integer constant in the body: +1, or -1 in
    // magnitude where +1 would leave long's range (e.g. i64's sign-bit
    // constant); the result still parses. If there is no constant,
    // drop a poison-flag keyword, silently changing semantics.
    size_t body = text.find('{');
    if (body == std::string::npos)
        body = 0;
    for (size_t i = text.size(); i > body + 1; --i) {
        size_t pos = i - 1;
        if (!std::isdigit(static_cast<unsigned char>(text[pos])))
            continue;
        // Expand to the full number.
        size_t end = pos + 1;
        size_t begin = pos;
        while (begin > body &&
               std::isdigit(static_cast<unsigned char>(text[begin - 1])))
            --begin;
        // Only perturb literal operands: a constant is preceded by a
        // space (or a unary minus after a space). Anything else is a
        // register name (%t0), type width (i32), suffix, or label.
        bool literal = false;
        if (begin > 0 && text[begin - 1] == ' ')
            literal = true;
        if (begin > 1 && text[begin - 1] == '-' &&
            text[begin - 2] == ' ')
            literal = true;
        if (!literal)
            continue;
        if (begin >= 6 && text.substr(begin - 6, 6) == "align ")
            continue;
        std::string digits = text.substr(begin, end - begin);
        long value = 0;
        bool fits = std::from_chars(digits.data(),
                                    digits.data() + digits.size(), value)
                        .ec == std::errc();
        std::string perturbed =
            fits && value < std::numeric_limits<long>::max()
                ? std::to_string(value + 1)
                : decrementDigits(std::move(digits));
        return text.substr(0, begin) + perturbed + text.substr(end);
    }
    for (const char *flag : {" nuw", " nsw", " disjoint", " exact"}) {
        size_t pos = text.find(flag);
        if (pos != std::string::npos)
            return text.substr(0, pos) + text.substr(pos + strlen(flag));
    }
    return text;
}

std::string
MockModel::identity() const
{
    // %.17g round-trips every double, so distinct calibrations never
    // print alike.
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  ";skill=%.17g;syntax=%.17g;semantic=%.17g;repair=%.17g;"
                  "latency=%.17g;local=%d;in=%.17g;out=%.17g;session=%llu",
                  profile_.skill, profile_.syntax_error_rate,
                  profile_.semantic_error_rate, profile_.repair_skill,
                  profile_.latency_seconds, profile_.local ? 1 : 0,
                  profile_.usd_per_mtok_in, profile_.usd_per_mtok_out,
                  static_cast<unsigned long long>(session_seed_));
    return profile_.name + buffer;
}

LlmResponse
MockModel::complete(const LlmRequest &request)
{
    LlmResponse response;
    std::string user_prompt =
        buildUserPrompt(request.function_text, request.feedback);
    response.prompt_tokens = estimateTokens(systemPrompt()) +
                             estimateTokens(user_prompt);

    ir::Context context;
    auto parsed = ir::parseFunction(context, request.function_text);

    // Deterministic stream per (model, round-seed, function).
    uint64_t fn_digest = parsed ? ir::structuralHash(**parsed)
                                : fnv1a64(request.function_text);
    Rng rng(session_seed_ ^ (request.seed * 0x9e3779b97f4a7c15ull) ^
            fn_digest ^ fnv1a64(profile_.name));

    auto finalize = [&](std::string text) {
        response.completion_tokens = estimateTokens(text);
        double jitter = 0.75 + 0.5 * rng.nextDouble();
        response.latency_seconds = profile_.latency_seconds * jitter;
        if (!profile_.local) {
            response.cost_usd =
                response.prompt_tokens * profile_.usd_per_mtok_in / 1e6 +
                response.completion_tokens * profile_.usd_per_mtok_out /
                    1e6;
        }
        response.text = std::move(text);
        return response;
    };

    if (!parsed) {
        // Even a weak model echoes something plausible.
        return finalize(request.function_text);
    }
    const ir::Function &fn = **parsed;

    // Find the applicable rewrite (the model's "insight").
    const RewriteRule *found = nullptr;
    std::string rewrite;
    for (const RewriteRule &rule : rewriteLibrary()) {
        if (auto text = rule.apply(fn)) {
            found = &rule;
            rewrite = std::move(*text);
            break;
        }
    }

    bool retrying = !request.feedback.empty();
    if (!found) {
        // Nothing in the model's knowledge matches: it answers with
        // the original function ("already optimal").
        return finalize(ir::printFunction(fn));
    }

    double difficulty = found->difficulty;
    if (hasVectorType(fn))
        difficulty += 0.20; // wide IR is harder to reason about
    double p_find = profile_.findProbability(difficulty);
    if (retrying)
        p_find = std::min(0.97, p_find + 0.10); // feedback focuses search

    if (!rng.chance(p_find))
        return finalize(ir::printFunction(fn)); // pattern not spotted

    // The model has the right idea; emission may still be corrupted.
    bool corrupt_syntax = rng.chance(profile_.syntax_error_rate);
    bool corrupt_semantics =
        !corrupt_syntax && rng.chance(profile_.semantic_error_rate);
    if (retrying) {
        // With concrete feedback, a capable model repairs the output.
        if (rng.chance(profile_.repair_skill)) {
            corrupt_syntax = false;
            corrupt_semantics = false;
        }
    }
    if (corrupt_syntax)
        return finalize(injectSyntaxError(rewrite));
    if (corrupt_semantics)
        return finalize(injectSemanticError(rewrite));
    return finalize(rewrite);
}

} // namespace lpo::llm
