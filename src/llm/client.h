/**
 * @file
 * The LLM client abstraction.
 *
 * The paper drives commercial LLM APIs; offline we simulate them (see
 * DESIGN.md, Substitutions). The interface mirrors what the pipeline
 * needs: given a prompt containing an IR function (and optionally
 * feedback from a failed attempt), return candidate IR text, plus the
 * latency and token cost the call would have incurred — those feed the
 * RQ3 throughput/cost accounting.
 */
#ifndef LPO_LLM_CLIENT_H
#define LPO_LLM_CLIENT_H

#include <cstdint>
#include <string>

namespace lpo::llm {

/** One model invocation's request. */
struct LlmRequest
{
    std::string system_prompt;
    std::string function_text; ///< the IR to optimize
    std::string feedback;      ///< error/counterexample from last attempt
    uint64_t seed = 0;         ///< per-round nonce for reproducibility
};

/** One model invocation's response. */
struct LlmResponse
{
    std::string text;          ///< proposed function (IR text)
    double latency_seconds = 0.0;
    double cost_usd = 0.0;
    uint64_t prompt_tokens = 0;
    uint64_t completion_tokens = 0;
};

/** Abstract client; the mock model is the offline implementation. */
class LlmClient
{
  public:
    virtual ~LlmClient() = default;

    /** Model display name (Table 1's "Model Name"). */
    virtual const std::string &name() const = 0;

    /**
     * Everything that decides what complete() answers for a given
     * request, as one string: two clients with equal identities must
     * give equal responses. The pipeline keys remembered misses on it
     * (see core/pipeline.h). The default is name(); a client whose
     * answers depend on more (calibration, a session seed) overrides
     * it.
     */
    virtual std::string identity() const { return name(); }

    /**
     * Run one completion.
     *
     * MUST be safe to call concurrently from multiple threads:
     * core::Pipeline::processModule fans sequences out over a task
     * scheduler (PipelineConfig::num_threads) and shares one client
     * across workers. MockModel is stateless per call; implementations
     * with internal state (sessions, caches, accounting) need their
     * own synchronization.
     */
    virtual LlmResponse complete(const LlmRequest &request) = 0;
};

/** Rough token count of a text (4 chars/token heuristic). */
uint64_t estimateTokens(const std::string &text);

} // namespace lpo::llm

#endif // LPO_LLM_CLIENT_H
