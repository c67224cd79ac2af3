// The set-up chain the untraced runs time (rne_tool generate, then
// rne_tool build) and the extra model files zipf-reload swaps between.
#include <cmath>

#include "algo/distance_sampler.h"
#include "bench.h"
#include "core/rne.h"
#include "graph/dimacs.h"
#include "util/rng.h"

namespace perfbench {

std::string GraphPath(const Env& env) { return env.work_dir + "/net.gr"; }
std::string CoordPath(const Env& env) { return env.work_dir + "/net.co"; }
std::string ModelPath(const Env& env) { return env.work_dir + "/model_a.rne"; }
std::string ReloadModelPath(const Env& env) { return env.work_dir + "/model_b.rne"; }
std::string NonFiniteModelPath(const Env& env) { return env.work_dir + "/nan.rne"; }

bool GenerateAndBuild(const Env& env, std::string* error) {
  if (!RunToCompletion({env.rne_tool, "generate", "--rows",
                        std::to_string(kGridRows), "--cols",
                        std::to_string(kGridCols), "--seed",
                        std::to_string(kGraphSeed), "--gr", GraphPath(env),
                        "--co", CoordPath(env)},
                       env.work_dir + "/generate.log", error)) {
    return false;
  }
  // The tool's defaults otherwise: one build thread, training seed 13.
  return RunToCompletion({env.rne_tool, "build", "--gr", GraphPath(env), "--co",
                          CoordPath(env), "--dim", std::to_string(kModelDim),
                          "--model", ModelPath(env)},
                         env.work_dir + "/build.log", error);
}

bool DeriveReloadModels(const Env& env, std::string* error) {
  auto graph = rne::LoadDimacs(GraphPath(env), CoordPath(env));
  if (!graph.ok()) {
    *error = graph.status().ToString();
    return false;
  }
  // Fixed seeds: both files are inputs of the workload, like the graph.
  rne::DistanceSampler sampler(graph.value(), 1);
  rne::Rng rng(5);
  const auto samples = sampler.RandomPairs(20000, rng);

  auto refined = rne::Rne::Load(ModelPath(env));
  if (!refined.ok()) {
    *error = refined.status().ToString();
    return false;
  }
  refined.value().RefineOnline(samples, 1, 0.05);
  if (const auto st = refined.value().Save(ReloadModelPath(env)); !st.ok()) {
    *error = st.ToString();
    return false;
  }

  auto poisoned = rne::Rne::Load(ModelPath(env));
  if (!poisoned.ok()) {
    *error = poisoned.status().ToString();
    return false;
  }
  const std::vector<rne::DistanceSample> few(samples.begin(),
                                             samples.begin() + 2000);
  poisoned.value().RefineOnline(few, 1, 1e30);  // diverges
  const auto& emb = poisoned.value().vertex_embeddings();
  bool finite = true;
  for (size_t v = 0; v < emb.rows() && finite; ++v) {
    for (float x : emb.Row(v)) finite = finite && std::isfinite(x);
  }
  if (finite) {
    *error = "RefineOnline at a diverging rate left every row finite";
    return false;
  }
  if (const auto st = poisoned.value().Save(NonFiniteModelPath(env)); !st.ok()) {
    *error = st.ToString();
    return false;
  }
  return true;
}

}  // namespace perfbench
