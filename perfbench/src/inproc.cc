// inproc-batch: no socket. One caller thread sends large uniform batches
// straight into QueryEngine::QueryBatch on an engine built like
// rne_server's chain (managed "rne" first, "dijkstra" as fallback,
// kEngineWorkers workers), then each of the round's KNN requests as a batch of
// its own, then reloads the model through its ModelManager.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "graph/dimacs.h"
#include "serving.h"

namespace perfbench {
namespace {

namespace serve = rne::serve;

/// The serving stack. Reset() tears it down engine first, as rne_server
/// orders it: the managed backend points into the manager and the
/// dijkstra backend into the graph.
struct Serving {
  rne::Graph graph;
  std::unique_ptr<serve::ModelManager> manager;
  std::unique_ptr<serve::QueryEngine> engine;

  ~Serving() { Reset(); }
  void Reset() {
    engine.reset();
    manager.reset();
  }
};

bool StartServing(const Env& env, Serving* s, std::string* error) {
  auto graph = rne::LoadDimacs(GraphPath(env), CoordPath(env));
  if (!graph.ok()) {
    *error = graph.status().ToString();
    return false;
  }
  s->graph = std::move(graph).value();
  serve::ModelManager::Options options;
  options.num_workers = kEngineWorkers;
  s->manager = std::make_unique<serve::ModelManager>(options);
  if (const auto st = s->manager->Load(ModelPath(env)); !st.ok()) {
    *error = st.ToString();
    return false;
  }
  s->engine = MakeEngine(kEngineWorkers, *s->manager, s->graph);
  if (const auto st = s->engine->WaitUntilLoaded(); !st.ok()) {
    *error = st.ToString();
    return false;
  }
  return true;
}

}  // namespace

std::unique_ptr<serve::QueryEngine> MakeEngine(
    size_t threads, const serve::ModelManager& manager,
    const rne::Graph& graph) {
  serve::EngineOptions options;
  options.num_threads = threads;
  auto engine = std::make_unique<serve::QueryEngine>(options);
  engine->AddReadyBackend(manager.MakeManagedBackend());
  serve::BackendContext ctx;
  ctx.graph = &graph;
  engine->AddBackend("dijkstra", ctx);
  return engine;
}

serve::Request ToRequest(const Req& r) {
  serve::Request q;
  q.kind = r.knn ? serve::RequestKind::kKnn : serve::RequestKind::kDistance;
  q.s = r.s;
  if (r.knn) {
    q.k = r.t;
  } else {
    q.t = r.t;
  }
  return q;
}

Answer AnswerFromResponse(const serve::Response& resp, bool knn) {
  Answer a;
  if (!resp.status.ok()) {
    a.error = true;
    a.raw = resp.status.ToString();
    return a;
  }
  a.parsed = true;
  if (knn) {
    for (const auto& [v, d] : resp.knn) a.knn.emplace_back(v, d);
    return a;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", resp.distance);
  a.dist.ok = true;
  a.dist.value = resp.distance;
  a.dist.value_text = buf;
  a.dist.backend = resp.backend;
  a.dist.exact = resp.exact;
  a.dist.cached = resp.cached;
  return a;
}

Checker::Exchange EngineExchange(serve::QueryEngine& engine) {
  return [&engine](const std::vector<Req>& reqs, std::vector<Answer>* answers) {
    std::vector<serve::Request> batch;
    for (const Req& r : reqs) batch.push_back(ToRequest(r));
    std::vector<serve::Response> out;
    const auto st = engine.QueryBatch(batch, &out);
    out.resize(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!st.ok()) out[i].status = st;
      answers->push_back(AnswerFromResponse(out[i], reqs[i].knn));
    }
    return true;
  };
}

Result RunInprocWorkload(const Env& env) {
  Result result;
  std::string error;
  std::vector<double> setup;
  Serving serving;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    serving.Reset();
    const auto start = Clock::now();
    if (!GenerateAndBuild(env, &error) || !StartServing(env, &serving, &error)) {
      result.Fail("set-up failed: " + error);
      return result;
    }
    const serve::Request first = ToRequest({false, 0, 1});
    std::vector<serve::Response> out;
    if (!serving.engine->QueryBatch({&first, 1}, &out).ok() ||
        !out[0].status.ok()) {
      result.Fail("no first answer from the engine");
      return result;
    }
    setup.push_back(SecondsSince(start));
  }
  result.Set("setup_s", Median(setup), "s");

  RefModel model;
  ExactGraph graph;
  if (!LoadRefModel(ModelPath(env), &model, &error) ||
      !ReadDimacsGraph(GraphPath(env), &graph, &error)) {
    result.Fail(error);
    return result;
  }
  Checker checker(&result, &graph);
  const Stream stream(Workload::kInprocBatch, env.seed, model.n);
  serve::QueryEngine& engine = *serving.engine;
  // Per timed round: its batch latencies, throughput, CPU per query and
  // the CPU time the host stole during it.
  std::vector<std::vector<double>> window_latency_us;
  std::vector<double> round_latency, window_qps, window_cpu_us, window_steal;
  std::vector<double> knn_latency_us, reload_s;
  std::map<std::pair<uint32_t, uint32_t>, double> sample;
  double timed = 0.0, cpu = 0.0;
  uint64_t answered = 0;
  size_t rounds = 0, timed_rounds = 0;
  // Buffers reused across rounds, so the process's peak RSS does not
  // depend on how many rounds a run makes.
  std::vector<Req> reqs;
  std::vector<serve::Request> requests;
  std::vector<std::vector<serve::Response>> responses(kInprocBatchesPerRound);
  std::vector<serve::Response> knn_responses;
  const size_t data = stream.DataSize();
  const auto start = Clock::now();
  auto timed_start = start;
  while (timed_rounds == 0 || SecondsSince(timed_start) < env.seconds) {
    const bool warm = SecondsSince(start) >= kWarmupSeconds && rounds > 0;
    if (warm && timed_rounds == 0) timed_start = Clock::now();
    stream.Round(rounds, &reqs);
    requests.resize(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) requests[i] = ToRequest(reqs[i]);
    // The round's first batch follows the pause in which the previous
    // round was checked, so the workers start it cold; it is answered and
    // checked but not timed. A continuous closed loop has no such pause.
    Clock::time_point phase;
    double cpu0 = 0.0, steal0 = 0.0;
    round_latency.clear();
    for (size_t b = 0; b < kInprocBatchesPerRound; ++b) {
      if (b == 1) {
        phase = Clock::now();
        cpu0 = SelfCpuSeconds();
        steal0 = HostStealSeconds();
      }
      const auto t0 = Clock::now();
      const auto st = engine.QueryBatch(
          std::span(requests).subspan(b * kInprocBatch, kInprocBatch),
          &responses[b]);
      const auto t1 = Clock::now();
      if (!st.ok()) {
        // A rejected batch: every request in it failed.
        for (auto& resp : responses[b]) resp.status = st;
      }
      if (warm && b > 0) round_latency.push_back(NanosBetween(t0, t1) / 1000.0);
    }
    if (warm) {
      // One throughput/CPU window per round: batches 1..63.
      const double secs = SecondsSince(phase);
      const double used = SelfCpuSeconds() - cpu0;
      const double n = static_cast<double>((kInprocBatchesPerRound - 1) * kInprocBatch);
      window_latency_us.push_back(round_latency);
      window_qps.push_back(n / secs);
      window_cpu_us.push_back(1e6 * used / n);
      window_steal.push_back(HostStealSeconds() - steal0);
      timed += secs;
      cpu += used;
      answered += (kInprocBatchesPerRound - 1) * kInprocBatch;
      ++timed_rounds;
    }
    // The round's KNN requests, one QueryBatch each.
    knn_responses.resize(reqs.size() - data);
    for (size_t i = data; i < reqs.size(); ++i) {
      std::vector<serve::Response> out;
      const auto t0 = Clock::now();
      const auto st = engine.QueryBatch({&requests[i], 1}, &out);
      const auto t1 = Clock::now();
      if (warm) knn_latency_us.push_back(NanosBetween(t0, t1) / 1000.0);
      out.resize(1);
      if (!st.ok()) out[0].status = st;
      knn_responses[i - data] = std::move(out[0]);
    }
    result.attempted += reqs.size();
    for (size_t i = 0; i < reqs.size(); ++i) {
      const auto& resp = i < data
                             ? responses[i / kInprocBatch][i % kInprocBatch]
                             : knn_responses[i - data];
      checker.Check(reqs[i], AnswerFromResponse(resp, reqs[i].knn), model);
      if (rounds == 0 && sample.size() < kCheckSample && !reqs[i].knn &&
          resp.status.ok() && resp.backend == "rne") {
        sample.emplace(std::make_pair(reqs[i].s, reqs[i].t), resp.distance);
      }
    }

    if (!checker.RunProbes(MakeProbes(env.seed, rounds, model.n), model,
                           EngineExchange(engine), /*through_cache=*/false)) {
      result.Fail("probe batch lost answers");
    }
    // Reloads of the serving model with no traffic beside them: verify,
    // load, kNN index build and publish, as a RELOAD does.
    for (size_t i = 0; i < kQuiescentReloads; ++i) {
      ++result.attempted;
      const auto t0 = Clock::now();
      const auto st = serving.manager->Load(ModelPath(env));
      if (warm) reload_s.push_back(SecondsSince(t0));
      if (!st.ok()) result.Fail("ModelManager::Load refused: " + st.ToString());
    }
    ++rounds;
  }

  const serve::MetricsSnapshot m = engine.Metrics();
  std::printf("engine %s\n", m.ToJson().c_str());
  result.Set("rss_peak_mb", PeakRssMb(0), "MB");
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<double> answers;
  for (const auto& [pair, value] : sample) {
    pairs.push_back(pair);
    answers.push_back(value);
  }
  const double mre =
      MeanRelativeError(answers, ExactPairDistances(graph, pairs, NumCpus()));
  if (!(mre < 0.2)) result.Fail("mean relative error above 20%");
  std::vector<size_t> kept = QuietWindows(window_steal);
  std::sort(kept.begin(), kept.end());  // latency windows in time order
  std::vector<double> qps, cpu_us, latency_us;
  for (size_t i : kept) {
    qps.push_back(window_qps[i]);
    cpu_us.push_back(window_cpu_us[i]);
    latency_us.insert(latency_us.end(), window_latency_us[i].begin(),
                      window_latency_us[i].end());
  }
  result.Set("throughput_qps", Median(qps), "q/s");
  std::vector<double> p50, p90, p99;
  for (size_t at = 0; at + kInprocLatencyWindow <= latency_us.size();
       at += kInprocLatencyWindow) {
    const std::vector<double> window(latency_us.begin() + at,
                                     latency_us.begin() + at + kInprocLatencyWindow);
    p50.push_back(Percentile(window, 50));
    p90.push_back(Percentile(window, 90));
    p99.push_back(Percentile(window, 99));
  }
  if (p50.empty()) {  // fewer quiet batches than one full window
    p50.push_back(Percentile(latency_us, 50));
    p90.push_back(Percentile(latency_us, 90));
    p99.push_back(Percentile(latency_us, 99));
  }
  result.Set("latency_p50_us", Median(p50), "us");
  result.Set("latency_p90_us", Median(p90), "us");
  result.Set("cpu_us_per_query", Median(cpu_us), "us");
  result.Set("mean_rel_error", mre, "ratio");
  result.Set("knn_p50_us", Percentile(knn_latency_us, 50), "us");
  result.Set("reload_s", Median(reload_s), "s");
  std::printf(
      "info {\"rounds\": %zu, \"timed_rounds\": %zu, \"timed_s\": %.3f, "
      "\"windows\": %zu, \"latency_windows\": %zu, \"batch_samples\": %zu, "
      "\"check_pairs\": %zu, \"overall_qps\": %.0f, \"overall_cpu_us\": %.4f, "
      "\"windows_kept\": %zu, \"latency_p99_us\": %.1f, \"knn_samples\": %zu, "
      "\"reload_samples\": %zu}\n",
      rounds, timed_rounds, timed, window_qps.size(), p50.size(),
      latency_us.size(), pairs.size(),
      static_cast<double>(answered) / timed,
      1e6 * cpu / static_cast<double>(answered), kept.size(), Median(p99),
      knn_latency_us.size(), reload_s.size());
  return result;
}

}  // namespace perfbench
