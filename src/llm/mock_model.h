/**
 * @file
 * The simulated LLM (offline substitute for the paper's API models).
 *
 * Mechanism, not lookup table: the model parses the IR it is given,
 * pattern-matches its private rewrite library (rule set B) against it,
 * and emits the rewrite as text. The capability profile governs
 *  - whether the model spots the applicable pattern at all
 *    (skill vs. pattern difficulty, seeded RNG per round);
 *  - hallucinations: a found rewrite may be emitted with a syntax
 *    error (bare `smax` opcode, exactly the paper's Fig. 3b) or with a
 *    semantic slip (perturbed constant);
 *  - repair: on a second attempt with verifier feedback, reasoning
 *    models usually correct the mistake — non-reasoning models often
 *    do not. This is the mechanism behind the LPO vs LPO- gap.
 *
 * Latency and token cost are modeled per profile for RQ3.
 */
#ifndef LPO_LLM_MOCK_MODEL_H
#define LPO_LLM_MOCK_MODEL_H

#include "llm/client.h"
#include "llm/model_profile.h"

namespace lpo::llm {

/** Deterministic simulated model. */
class MockModel : public LlmClient
{
  public:
    explicit MockModel(ModelProfile profile, uint64_t session_seed = 1)
        : profile_(std::move(profile)), session_seed_(session_seed)
    {}

    const std::string &name() const override { return profile_.name; }
    const ModelProfile &profile() const { return profile_; }
    /** The profile name, every profile field complete() reads, and
     *  the session seed: tests build custom profiles under stock
     *  names, so the name alone is not unique. */
    std::string identity() const override;

    LlmResponse complete(const LlmRequest &request) override;

  private:
    ModelProfile profile_;
    uint64_t session_seed_;
};

/**
 * Corrupt IR text with an invalid-opcode spelling (Fig. 3b style):
 * the first intrinsic call becomes a bare pseudo-instruction.
 * Exposed for testing.
 */
std::string injectSyntaxError(const std::string &text);

/** Corrupt IR text semantically (perturb a constant / drop a flag). */
std::string injectSemanticError(const std::string &text);

} // namespace lpo::llm

#endif // LPO_LLM_MOCK_MODEL_H
