/**
 * @file
 * The IR text layer's pinned function set, shared by the parser and
 * printer tests and by bench/bench_ir_text.cc.
 *
 * Six groups, all deterministic:
 *   - rq_src, rq_tgt: the 87 RQ1 + RQ2 sources and targets;
 *   - module: every function of largeModule(7, 200, 3);
 *   - sequences: every sequence the extractor takes from that module;
 *   - rewrite_library: every rewriteLibrary() output on those sequences
 *     and on the RQ sources;
 *   - algebraic_rules: every algebraicRules() output on them (the
 *     extracted sequences are already past opt, so only RQ sources
 *     give these rules work).
 *
 * The tests pin an FNV-1a digest of printFunction and
 * printFunctionCanonical per group; the bench times parse, print and
 * canonical print over the same functions.
 */
#ifndef LPO_TESTS_IR_TEXT_CORPUS_H
#define LPO_TESTS_IR_TEXT_CORPUS_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "corpus/benchmarks.h"
#include "corpus/generator.h"
#include "egraph/rules.h"
#include "extract/extractor.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "llm/rewrite_library.h"

namespace lpo::text_corpus {

/** One named slice of the pinned set. */
struct Group
{
    std::string name;
    std::vector<const ir::Function *> functions;
};

/** The pinned set; owns every function the groups point at. */
struct Corpus
{
    std::vector<Group> groups;
    /** The raw RQ texts, as written in the catalog (comments and all). */
    std::vector<std::string> raw_texts;
    std::unique_ptr<ir::Module> module;
    std::vector<std::unique_ptr<ir::Function>> owned;
};

/** FNV-1a over @p text, continuing from @p hash. */
inline uint64_t
fnvFold(uint64_t hash, std::string_view text)
{
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Build the pinned set in @p ctx. Returns an empty corpus if a
 *  catalog text or a rule output fails to parse. */
inline Corpus
build(ir::Context &ctx)
{
    Corpus out;
    auto parse = [&](const std::string &text) -> const ir::Function * {
        auto fn = ir::parseFunction(ctx, text);
        if (!fn.ok())
            return nullptr;
        out.owned.push_back(fn.take());
        return out.owned.back().get();
    };

    Group src{"rq_src", {}}, tgt{"rq_tgt", {}};
    for (const auto *catalog :
         {&corpus::rq1Benchmarks(), &corpus::rq2Benchmarks()}) {
        for (const auto &bench : *catalog) {
            out.raw_texts.push_back(bench.src_text);
            out.raw_texts.push_back(bench.tgt_text);
            const ir::Function *s = parse(bench.src_text);
            const ir::Function *t = parse(bench.tgt_text);
            if (!s || !t)
                return {};
            src.functions.push_back(s);
            tgt.functions.push_back(t);
        }
    }

    corpus::CorpusGenerator generator(ctx);
    out.module = generator.largeModule(7, 200, 3);
    Group module{"module", {}};
    for (const auto &fn : out.module->functions())
        module.functions.push_back(fn.get());

    extract::Extractor extractor;
    Group sequences{"sequences", {}};
    for (auto &seq : extractor.extractFromModule(*out.module)) {
        out.owned.push_back(std::move(seq));
        sequences.functions.push_back(out.owned.back().get());
    }

    Group library{"rewrite_library", {}}, algebraic{"algebraic_rules", {}};
    std::vector<const ir::Function *> inputs = sequences.functions;
    inputs.insert(inputs.end(), src.functions.begin(), src.functions.end());
    for (const ir::Function *seq : inputs) {
        for (const auto &rule : llm::rewriteLibrary())
            if (auto text = rule.apply(*seq)) {
                const ir::Function *fn = parse(*text);
                if (!fn)
                    return {};
                library.functions.push_back(fn);
            }
        for (const auto &rule : egraph::algebraicRules())
            if (auto text = rule.apply(*seq)) {
                const ir::Function *fn = parse(*text);
                if (!fn)
                    return {};
                algebraic.functions.push_back(fn);
            }
    }

    out.groups = {std::move(src),     std::move(tgt),
                  std::move(module),  std::move(sequences),
                  std::move(library), std::move(algebraic)};
    return out;
}

} // namespace lpo::text_corpus

#endif // LPO_TESTS_IR_TEXT_CORPUS_H
