/**
 * @file
 * Candidate-generation backends behind one interface.
 *
 * The LPO loop (core/pipeline.h) is proposer-agnostic: each attempt
 * it asks a Proposer for candidate IR text and pushes whatever comes
 * back through the unchanged opt / interestingness / verification
 * gates. Two backends exist — the LLM client (the paper's loop) and
 * the e-graph equality-saturation engine — plus a hybrid pipeline
 * mode that falls back from the first to the second. See DESIGN.md,
 * "The Proposer contract".
 */
#ifndef LPO_CORE_PROPOSER_H
#define LPO_CORE_PROPOSER_H

#include <optional>
#include <string>

#include "egraph/rules.h"
#include "ir/function.h"
#include "llm/client.h"
#include "verify/persist.h"

namespace lpo::core {

/** Candidate-generation strategy selected by PipelineConfig. */
enum class ProposerKind { Llm, EGraph, Hybrid };

const char *proposerKindName(ProposerKind kind);
/** Parse "llm" / "egraph" / "hybrid" (CLI spelling). */
bool parseProposerKind(const std::string &name, ProposerKind *out);

/** One candidate produced by a backend. */
struct Proposal
{
    std::string text;            ///< candidate function as IR text
    double latency_seconds = 0.0; ///< simulated backend latency
    double cost_usd = 0.0;        ///< simulated backend cost
};

/**
 * A candidate-generation backend.
 *
 * Contract:
 *  - propose() MUST be safe to call concurrently (the pipeline shares
 *    one instance across its worker pool) and MUST be deterministic
 *    in (seq, seq_text, feedback, attempt_seed);
 *  - seq_text is the sequence's text in the form the backend reads:
 *    ir::printFunction for the LLM, ir::printFunctionCanonical (the
 *    catalog key) for the catalog; the e-graph reads seq and ignores
 *    it. The pipeline prints each form once per case;
 *  - returning nullopt means the backend has nothing (more) to offer
 *    for this sequence — the loop stops instead of burning attempts;
 *  - a returned proposal is *text*, not trusted IR: the pipeline
 *    still syntax-checks, canonicalizes, gates, and verifies it.
 */
class Proposer
{
  public:
    enum class Backend { Llm, EGraph, Catalog };

    virtual ~Proposer() = default;

    virtual Backend backend() const = 0;
    /** Stats/report key: "llm", "egraph", or "catalog". */
    const char *name() const;

    virtual std::optional<Proposal>
    propose(const ir::Function &seq, const std::string &seq_text,
            const std::string &feedback, uint64_t attempt_seed) = 0;
};

/** The paper's backend: one LlmClient completion per attempt. */
class LlmProposer : public Proposer
{
  public:
    explicit LlmProposer(llm::LlmClient &client) : client_(client) {}

    Backend backend() const override { return Backend::Llm; }
    std::optional<Proposal>
    propose(const ir::Function &seq, const std::string &seq_text,
            const std::string &feedback, uint64_t attempt_seed) override;

  private:
    llm::LlmClient &client_;
};

/**
 * The equality-saturation backend: build an e-graph from the
 * sequence, saturate under budget, extract the cheapest equivalent,
 * and propose it when it is strictly better (fewer instructions, or
 * equally many at fewer estimated cycles — the same ordering the
 * interestingness gate enforces, so cosmetic re-spellings are never
 * proposed). Deterministic and feedback-free: a non-empty feedback
 * string means a previous identical proposal already failed, so it
 * returns nullopt rather than repeating itself.
 */
class EGraphProposer : public Proposer
{
  public:
    explicit EGraphProposer(egraph::SaturationLimits limits = {})
        : limits_(limits)
    {}

    Backend backend() const override { return Backend::EGraph; }
    std::optional<Proposal>
    propose(const ir::Function &seq, const std::string &seq_text,
            const std::string &feedback, uint64_t attempt_seed) override;

    const egraph::SaturationLimits &limits() const { return limits_; }

  private:
    egraph::SaturationLimits limits_;
};

/**
 * The learned-rewrite backend: replay a candidate the persistent
 * store (see verify/persist.h) remembers as once verified against a
 * structurally identical sequence. Runs as the first hybrid leg — a
 * hit skips the LLM entirely, and because the matching verdict was
 * persisted alongside it, verification is a cache hit: zero SAT cost.
 * The proposal is still plain text that re-runs opt, the
 * interestingness gate, and full verification, so a stale or corrupt
 * catalog entry degrades to an ordinary failed attempt, never an
 * unproved patch. Deterministic: lookups see only open-time catalog
 * state. Feedback-free like the e-graph — its one candidate already
 * failed if feedback is non-empty. @p seq_text is the sequence's
 * canonical print.
 */
class CatalogProposer : public Proposer
{
  public:
    /** @p catalog may be null (no store configured): never proposes. */
    explicit CatalogProposer(const verify::RewriteCatalog *catalog)
        : catalog_(catalog)
    {}

    Backend backend() const override { return Backend::Catalog; }
    std::optional<Proposal>
    propose(const ir::Function &seq, const std::string &seq_text,
            const std::string &feedback, uint64_t attempt_seed) override;

    bool enabled() const { return catalog_ != nullptr; }

  private:
    const verify::RewriteCatalog *catalog_;
};

} // namespace lpo::core

#endif // LPO_CORE_PROPOSER_H
