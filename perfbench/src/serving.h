// In-process serving stack shared by inproc-batch and the traced run: an
// engine built like rne_server's chain, and conversions between
// the benchmark's requests/answers and the engine's.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <memory>
#include <string>

#include "bench.h"
#include "graph/graph.h"
#include "serve/model_manager.h"
#include "serve/query_engine.h"

namespace perfbench {

/// Managed "rne" first, "dijkstra" as fallback, `threads` workers.
std::unique_ptr<rne::serve::QueryEngine> MakeEngine(
    size_t threads, const rne::serve::ModelManager& manager,
    const rne::Graph& graph);

rne::serve::Request ToRequest(const Req& r);
Answer AnswerFromResponse(const rne::serve::Response& resp, bool knn);
/// Sends each batch through `engine` (not owned; must outlive the result).
Checker::Exchange EngineExchange(rne::serve::QueryEngine& engine);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
