#include "core/proposer.h"

#include "support/failpoint.h"
#include "ir/ir_verifier.h"
#include "ir/printer.h"
#include "mca/cost_model.h"

namespace lpo::core {

const char *
proposerKindName(ProposerKind kind)
{
    switch (kind) {
      case ProposerKind::Llm: return "llm";
      case ProposerKind::EGraph: return "egraph";
      case ProposerKind::Hybrid: return "hybrid";
    }
    return "?";
}

bool
parseProposerKind(const std::string &name, ProposerKind *out)
{
    if (name == "llm")
        *out = ProposerKind::Llm;
    else if (name == "egraph")
        *out = ProposerKind::EGraph;
    else if (name == "hybrid")
        *out = ProposerKind::Hybrid;
    else
        return false;
    return true;
}

const char *
Proposer::name() const
{
    switch (backend()) {
      case Backend::Llm: return "llm";
      case Backend::EGraph: return "egraph";
      case Backend::Catalog: return "catalog";
    }
    return "?";
}

std::optional<Proposal>
LlmProposer::propose(const ir::Function &, const std::string &seq_text,
                     const std::string &feedback, uint64_t attempt_seed)
{
    // Chaos-test injection: a provider outage (throw) or a model that
    // has nothing to offer (none).
    if (LPO_FAILPOINT("proposer.llm.throw"))
        throw FailPointError("injected LLM backend failure "
                             "(failpoint proposer.llm.throw)");
    if (LPO_FAILPOINT("proposer.llm.none"))
        return std::nullopt;
    llm::LlmRequest request;
    request.system_prompt = "(see llm/prompt.h)";
    request.function_text = seq_text;
    request.feedback = feedback;
    request.seed = attempt_seed;
    llm::LlmResponse response = client_.complete(request);
    Proposal proposal;
    proposal.text = std::move(response.text);
    proposal.latency_seconds = response.latency_seconds;
    proposal.cost_usd = response.cost_usd;
    return proposal;
}

std::optional<Proposal>
EGraphProposer::propose(const ir::Function &seq, const std::string &,
                        const std::string &feedback, uint64_t)
{
    // Chaos-test injection, mirroring the LLM leg's two fault shapes.
    if (LPO_FAILPOINT("proposer.egraph.throw"))
        throw FailPointError("injected e-graph backend failure "
                             "(failpoint proposer.egraph.throw)");
    if (LPO_FAILPOINT("proposer.egraph.none"))
        return std::nullopt;
    // Saturation is deterministic: after a failed attempt there is
    // nothing different to say, so don't repeat the proposal.
    if (!feedback.empty())
        return std::nullopt;

    // bestEquivalent returns nullptr for a sequence outside the
    // e-graph's fragment (EGraph::addFunction checks supports()).
    std::unique_ptr<ir::Function> best = egraph::bestEquivalent(seq, limits_);
    if (!best || !ir::isValid(*best))
        return std::nullopt;

    // Only propose strict improvements under the interestingness
    // ordering (instruction count first, then cycles): equal-cost
    // re-spellings would pass the gate as "syntactically different"
    // and pollute the found set with cosmetic rewrites.
    mca::CostSummary before = mca::analyzeFunction(seq);
    mca::CostSummary after = mca::analyzeFunction(*best);
    bool better =
        after.instruction_count < before.instruction_count ||
        (after.instruction_count == before.instruction_count &&
         after.total_cycles < before.total_cycles);
    if (!better)
        return std::nullopt;

    Proposal proposal;
    proposal.text = ir::printFunction(*best);
    return proposal;
}

std::optional<Proposal>
CatalogProposer::propose(const ir::Function &, const std::string &seq_text,
                         const std::string &feedback, uint64_t)
{
    if (!catalog_)
        return std::nullopt;
    // One candidate per sequence: non-empty feedback means that
    // candidate already failed this case, so there is nothing new to
    // offer (same contract as the e-graph backend).
    if (!feedback.empty())
        return std::nullopt;
    const std::string *text = catalog_->lookup(seq_text);
    if (!text)
        return std::nullopt;
    Proposal proposal;
    proposal.text = *text;
    return proposal;
}

} // namespace lpo::core
