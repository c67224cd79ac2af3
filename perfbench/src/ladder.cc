// The traced run: the workload's own request stream through one layer's
// public entry point at a time, from the L1 kernel up to the TCP reactor,
// with a span around every call (or chunk of calls). A layer's self cost is
// its ns per request minus that of the layer below it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "core/kernels.h"
#include "core/rne.h"
#include "core/rne_index.h"
#include "graph/dimacs.h"
#include "graph/generators.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/result_cache.h"
#include "serve/server_loop.h"
#include "serving.h"

namespace perfbench {
namespace {

namespace serve = rne::serve;

/// Passes over the stream per rung; a rung reports its median pass.
constexpr int kPasses = 5;
constexpr int kEnginePasses = 3;
/// Requests per span in the rungs that make one call per request.
constexpr size_t kChunk = 1024;
/// Requests of the stream the cache rung replays (hits need repeats).
constexpr size_t kCacheRequests = size_t{1} << 19;
/// Answers of the engine rungs checked after timing.
constexpr size_t kChecked = 65536;
/// KNN requests of the kNN rung at least: the round's own, topped up with
/// KNN requests on the sources of its first distance pairs.
constexpr size_t kKnnRung = 512;

class Ladder {
 public:
  Ladder(const Env& env, Workload w) : env_(env), w_(w) {}
  Result Run();

 private:
  /// Times `body` (run once per pass) and returns its median seconds.
  double Time(const std::string& name, int passes,
              const std::function<void(uint32_t span)>& body);
  bool SetupLayers();
  void ModelLayers();
  void EngineLayers();
  void FrontEndLayers();
  void KnnLayer();
  /// Runs the stream through `engine`, untimed, for kWarmupSeconds: as in
  /// the untraced runs, a multi-worker engine is timed only after it has
  /// left its initial faster state.
  void WarmUp(serve::QueryEngine& engine,
              const std::vector<serve::Request>& requests);

  const Env& env_;
  const Workload w_;
  Result result_;
  SpanLog spans_;
  uint32_t root_ = 0;
  rne::Graph graph_;
  ExactGraph exact_;
  RefModel ref_[2];
  std::unique_ptr<serve::ModelManager> manager_;
  std::unique_ptr<rne::Rne> model_;
  std::vector<Req> round_;
  std::vector<Req> dist_;
};

double Ladder::Time(const std::string& name, int passes,
                    const std::function<void(uint32_t)>& body) {
  std::vector<double> seconds;
  const uint32_t layer = spans_.Begin(name, root_, 0);
  for (int p = 0; p < passes; ++p) {
    const uint32_t pass = spans_.Begin(name + ".pass", layer, 0);
    const auto start = Clock::now();
    body(pass);
    seconds.push_back(SecondsSince(start));
    spans_.End(pass);
  }
  spans_.End(layer);
  return Median(seconds);
}

bool Ladder::SetupLayers() {
  rne::RoadNetworkConfig cfg;
  cfg.rows = kGridRows;
  cfg.cols = kGridCols;
  cfg.seed = kGraphSeed;
  bool saved = true;
  result_.Set("graph.generate_s", Time("graph.generate", 3, [&](uint32_t) {
    graph_ = rne::MakeRoadNetwork(cfg);
    saved = saved && rne::SaveDimacs(graph_, GraphPath(env_), CoordPath(env_)).ok();
  }), "s");
  if (!saved) {
    result_.Fail("SaveDimacs failed");
    return false;
  }

  // The configuration `rne_tool build --dim 32` uses.
  rne::RneConfig config;
  config.dim = kModelDim;
  config.train.seed = 13;
  config.train.num_threads = 1;
  config.hierarchy.partition.num_threads = 1;
  rne::RneBuildStats stats;
  const uint32_t build = spans_.Begin("core.rne.build", root_, 0);
  const rne::Rne built = rne::Rne::Build(graph_, config, &stats);
  spans_.End(build);
  result_.Set("partition.build_s", stats.partition_seconds, "s");
  for (int phase = 0; phase < 3; ++phase) {
    const std::string name = "core.trainer.phase" + std::to_string(phase + 1);
    const double secs = stats.phase_seconds[phase];
    result_.Set(name + "_s", secs, "s");
    result_.Set(name + "_samples_per_s",
                secs > 0.0 ? static_cast<double>(stats.phase_samples[phase]) / secs
                           : 0.0,
                "1/s");
  }
  result_.Set("util.serialize.save_s", Time("util.serialize.save", 3, [&](uint32_t) {
    saved = saved && built.Save(ModelPath(env_)).ok();
  }), "s");
  std::string error;
  const bool reloads = w_ == Workload::kZipfReload;
  const std::string b_path = reloads ? ReloadModelPath(env_) : ModelPath(env_);
  if (!saved || (reloads && !DeriveReloadModels(env_, &error)) ||
      !LoadRefModel(ModelPath(env_), &ref_[0], &error) ||
      !LoadRefModel(b_path, &ref_[1], &error) ||
      !ReadDimacsGraph(GraphPath(env_), &exact_, &error)) {
    result_.Fail("set-up failed: " + error + (saved ? "" : " (Save failed)"));
    return false;
  }
  return true;
}

void Ladder::ModelLayers() {
  const std::string path = ModelPath(env_);
  bool ok = true;
  result_.Set("core.rne.load_s", Time("core.rne.load", kPasses, [&](uint32_t) {
    auto loaded = rne::Rne::Load(path);
    ok = ok && loaded.ok();
    if (loaded.ok()) model_ = std::make_unique<rne::Rne>(std::move(loaded).value());
  }), "s");
  result_.Set("serve.model_manager.verify_s",
              Time("serve.model_manager.verify", kPasses, [&](uint32_t) {
                ok = ok && serve::VerifyIndexFile(path, rne::kRneMagic).ok();
              }),
              "s");
  result_.Set("core.rne_index.build_s",
              Time("core.rne_index.build", kPasses, [&](uint32_t) {
                const rne::RneIndex index(model_.get(), kEngineWorkers);
                ok = ok && index.num_targets() == model_->NumVertices();
              }),
              "s");
  serve::ModelManager::Options options;
  options.num_workers = kEngineWorkers;
  manager_ = std::make_unique<serve::ModelManager>(options);
  int flip = 0;
  result_.Set("serve.model_manager.load_s",
              Time("serve.model_manager.load", kPasses, [&](uint32_t) {
                ok = ok && manager_->Load(ref_[flip++ % 2].path).ok();
              }),
              "s");
  ok = ok && manager_->Load(path).ok();
  if (!ok) result_.Fail("loading the model failed");

  // Kernel, model and backend rungs: distance requests only, one call each.
  const auto& emb = model_->vertex_embeddings();
  const double scale = model_->scale();
  // Generic so each call inlines into the loop: an indirect call would add
  // a few ns to a ~10 ns kernel.
  auto rung = [&](const std::string& name, auto call) {
    double sink = 0.0;
    const double secs = Time(name, kPasses, [&](uint32_t pass) {
      for (size_t at = 0; at < dist_.size(); at += kChunk) {
        const size_t end = std::min(dist_.size(), at + kChunk);
        const uint32_t span = spans_.Begin(name, pass, end - at);
        for (size_t i = at; i < end; ++i) sink += call(dist_[i]);
        spans_.End(span);
      }
    });
    if (!std::isfinite(sink)) result_.Fail(name + " returned a non-finite value");
    for (size_t i = 0; i < std::min(dist_.size(), kChunk); ++i) {
      const Req& r = dist_[i];
      const auto e = CheckMatchesModel(call(r), ref_[0].Dist(r.s, r.t));
      if (!e.empty()) result_.Fail(name + ": " + e);
    }
    return 1e9 * secs / static_cast<double>(dist_.size());
  };
  result_.Set("core.kernel.l1_ns", rung("core.kernel.l1", [&](const Req& r) {
    return rne::L1Kernel(emb.Row(r.s), emb.Row(r.t)) * scale;
  }), "ns");
  result_.Set("core.rne.query_ns", rung("core.rne.query", [&](const Req& r) {
    return model_->Query(r.s, r.t);
  }), "ns");
  auto backend = manager_->MakeManagedBackend();
  result_.Set("serve.backend.distance_ns",
              rung("serve.backend.distance",
                   [&](const Req& r) { return backend->Distance(r.s, r.t); }),
              "ns");
}

void Ladder::EngineLayers() {
  const size_t batch = WorkloadBatch(w_);
  std::vector<serve::Request> requests;
  for (const Req& r : round_) requests.push_back(ToRequest(r));
  auto run_batches = [&](auto& engine, const std::string& name, uint32_t pass,
                         std::span<const serve::Request> reqs) {
    std::vector<serve::Response> out;
    for (size_t at = 0; at < reqs.size(); at += batch) {
      const size_t n = std::min(batch, reqs.size() - at);
      const uint32_t span = spans_.Begin(name, pass, n);
      const auto st = engine.QueryBatch(reqs.subspan(at, n), &out);
      spans_.End(span);
      if (!st.ok()) result_.Fail(name + ": batch rejected: " + st.ToString());
    }
  };
  Checker checker(&result_, &exact_);
  // The served engine (w1) first, then one worker per CPU (wN).
  static_assert(kEngineWorkers == 1, "the served engine's metric is w1");
  const size_t worker_counts[2] = {kEngineWorkers, NumCpus()};
  for (int i = 0; i < 2; ++i) {
    const size_t threads = worker_counts[i];
    const bool served_engine = i == 0;
    auto engine = MakeEngine(threads, *manager_, graph_);
    if (!engine->WaitUntilLoaded().ok()) result_.Fail("engine load failed");
    WarmUp(*engine, requests);
    const std::string name = "serve.engine.query_batch.w" + std::to_string(threads);
    const double secs = Time(name, kEnginePasses, [&](uint32_t pass) {
      run_batches(*engine, name, pass, requests);
    });
    result_.Set(served_engine ? "serve.engine.request_ns.w1"
                              : "serve.engine.request_ns.wN",
                1e9 * secs / static_cast<double>(requests.size()), "ns");
    // Untimed check pass over the first batches.
    std::vector<serve::Response> out;
    for (size_t at = 0; at < std::min(requests.size(), kChecked); at += batch) {
      const size_t n = std::min(batch, requests.size() - at);
      if (!engine->QueryBatch(std::span(requests).subspan(at, n), &out).ok()) continue;
      for (size_t i = 0; i < n; ++i) {
        checker.Check(round_[at + i], AnswerFromResponse(out[i], round_[at + i].knn),
                      ref_[0]);
      }
    }
    if (!served_engine) continue;
    const serve::MetricsSnapshot m = engine->Metrics();
    result_.Set("serve.engine.fell_back",
                static_cast<double>(m.fell_back_load + m.fell_back_deadline +
                                    m.fell_back_breaker),
                "count");
    result_.Set("serve.engine.rejected", static_cast<double>(m.rejected), "count");

    // Cache rung: CachedEngine over the same engine, for at least
    // kCacheRequests requests of the stream; zipf-reload invalidates where
    // its RELOADs would (mid-round and at the end of the round).
    serve::ResultCacheOptions cache_options;
    cache_options.capacity = kServerCacheEntries;
    cache_options.num_shards = kServerCacheShards;
    serve::ResultCache cache(cache_options);
    serve::CachedEngine cached(engine.get(), &cache);
    const Stream stream(w_, env_.seed, ref_[0].n);
    std::vector<std::vector<serve::Request>> rounds;
    size_t total = 0;
    while (total < kCacheRequests) {
      rounds.emplace_back();
      for (const Req& q : stream.Round(rounds.size() - 1)) {
        rounds.back().push_back(ToRequest(q));
      }
      total += rounds.back().size();
    }
    const double cache_secs = Time("serve.cache.query_batch", 1, [&](uint32_t pass) {
      for (const auto& reqs : rounds) {
        const std::span<const serve::Request> all(reqs);
        const size_t half = reqs.size() / 2;
        run_batches(cached, "serve.cache.query_batch", pass, all.first(half));
        if (w_ == Workload::kZipfReload) cache.Invalidate();
        run_batches(cached, "serve.cache.query_batch", pass, all.subspan(half));
        if (w_ == Workload::kZipfReload) cache.Invalidate();
      }
    });
    const serve::CacheStats stats = cache.Stats();
    result_.Set("serve.cache.request_ns", 1e9 * cache_secs / static_cast<double>(total),
                "ns");
    result_.Set("serve.cache.hit_rate", stats.hit_rate, "ratio");
    result_.Set("serve.cache.evictions", static_cast<double>(stats.evictions), "count");

    if (w_ == Workload::kInprocBatch) {
      // The operations of one inproc-batch round: the stream and the probes.
      result_.attempted += requests.size();
      if (!checker.RunProbes(MakeProbes(env_.seed, 0, ref_[0].n), ref_[0],
                             EngineExchange(*engine), /*through_cache=*/false)) {
        result_.Fail("probe batch lost answers");
      }
    }
  }
}

void Ladder::WarmUp(serve::QueryEngine& engine,
                    const std::vector<serve::Request>& requests) {
  const size_t batch = WorkloadBatch(w_);
  std::vector<serve::Response> out;
  const auto start = Clock::now();
  while (SecondsSince(start) < kWarmupSeconds) {
    for (size_t at = 0; at + batch <= requests.size(); at += batch) {
      if (!engine.QueryBatch(std::span(requests).subspan(at, batch), &out).ok()) {
        result_.Fail("warm-up batch rejected");
        return;
      }
    }
  }
}

void Ladder::FrontEndLayers() {
  auto engine = MakeEngine(kEngineWorkers, *manager_, graph_);
  if (!engine->WaitUntilLoaded().ok()) result_.Fail("engine load failed");
  const size_t batch = WorkloadBatch(w_);
  {
    std::vector<serve::Request> requests;
    for (const Req& r : round_) requests.push_back(ToRequest(r));
    WarmUp(*engine, requests);
  }
  // Pass p replays round p, so a pass does not just hit what the previous
  // pass left in the cache.
  const Stream stream(w_, env_.seed, ref_[0].n);
  std::vector<std::vector<std::string>> bursts(kEnginePasses);
  for (int p = 0; p < kEnginePasses; ++p) {
    const std::vector<Req> reqs = p == 0 ? round_ : stream.Round(p);
    for (size_t at = 0; at < reqs.size(); at += batch) {
      std::string text;
      for (size_t i = at; i < std::min(reqs.size(), at + batch); ++i) {
        AppendRequestLine(reqs[i], &text);
      }
      bursts[p].push_back(std::move(text));
    }
  }
  serve::ResultCacheOptions cache_options;
  cache_options.capacity = kServerCacheEntries;
  cache_options.num_shards = kServerCacheShards;

  // Protocol rung: one handler, one Consume + Flush per burst.
  {
    serve::ResultCache cache(cache_options);
    serve::ServerLoopOptions options;
    options.batch = batch;
    options.cache = &cache;
    serve::LineProtocolHandler handler(*engine, options);
    std::string out;
    size_t lines = 0;
    int p = 0;
    const double secs = Time("serve.protocol.consume_flush", kEnginePasses, [&](uint32_t pass) {
      for (const std::string& text : bursts[p++]) {
        const uint32_t span = spans_.Begin("serve.protocol.consume_flush", pass, batch);
        out.clear();
        handler.Consume(text, &out);
        handler.Flush(&out);
        spans_.End(span);
        lines += static_cast<size_t>(std::count(out.begin(), out.end(), '\n'));
      }
    });
    if (lines != kEnginePasses * round_.size()) {
      result_.Fail("protocol rung lost answers");
    }
    result_.Set("serve.protocol.request_ns",
                1e9 * secs / static_cast<double>(round_.size()), "ns");
  }

  // TCP rung: in-process net::TcpServer on loopback, sent whole rounds of
  // the workload by the socket workload's own client (two pipelined
  // connections and a control connection, bursts of kDepth).
  serve::ResultCache cache(cache_options);
  rne::net::TcpServerOptions options;
  options.loop.batch = kDepth;
  options.loop.cache = &cache;
  options.loop.model_manager = manager_.get();
  rne::net::TcpServer server(*engine, options);
  if (!server.Start().ok()) {
    result_.Fail("TcpServer failed to start");
    return;
  }
  rne::Status served;
  std::thread reactor([&] { served = server.Serve(); });
  const uint32_t layer = spans_.Begin("net.tcp", root_, 0);
  const std::vector<double> secs = RunSocketRounds(
      env_, w_, server.port(), kEnginePasses, &spans_, layer, &result_);
  spans_.End(layer);
  const rne::net::NetStatsSnapshot stats = server.Stats();
  server.Shutdown();
  reactor.join();
  if (secs.size() != static_cast<size_t>(kEnginePasses) || !served.ok()) result_.Fail("TCP rung failed");
  result_.Set("net.tcp.request_ns",
              1e9 * Median(secs) / static_cast<double>(round_.size()), "ns");
  result_.Set("net.bytes_per_request",
              static_cast<double>(stats.bytes_in + stats.bytes_out) /
                  static_cast<double>(std::max<uint64_t>(1, stats.lines)),
              "B");
}

void Ladder::KnnLayer() {
  std::vector<Req> knn;
  for (const Req& r : round_) {
    if (r.knn) knn.push_back(r);
  }
  for (size_t i = 0; knn.size() < kKnnRung && i < dist_.size(); ++i) {
    knn.push_back({true, dist_[i].s, static_cast<uint32_t>(kKnnK)});
  }
  const rne::RneIndex index(model_.get(), kEngineWorkers);
  auto& registry = rne::obs::MetricsRegistry::Global();
  rne::obs::Counter* queries = registry.GetCounter("index.knn.queries");
  rne::obs::Counter* visited = registry.GetCounter("index.knn.nodes_visited");
  const uint64_t q0 = queries->Value(), v0 = visited->Value();
  std::vector<std::vector<std::pair<rne::VertexId, double>>> first(knn.size());
  bool keep = true;
  const double secs = Time("core.rne_index.knn", kPasses, [&](uint32_t pass) {
    const uint32_t span = spans_.Begin("core.rne_index.knn", pass, knn.size());
    for (size_t i = 0; i < knn.size(); ++i) {
      auto got = index.Knn(knn[i].s, knn[i].t);
      if (keep) first[i] = std::move(got);
    }
    keep = false;
    spans_.End(span);
  });
  Checker checker(&result_, &exact_);
  for (size_t i = 0; i < knn.size(); ++i) {
    Answer a;
    a.parsed = true;
    for (const auto& [v, d] : first[i]) a.knn.emplace_back(v, d);
    checker.Check(knn[i], a, ref_[0]);
  }
  result_.Set("core.rne_index.knn_ns", 1e9 * secs / static_cast<double>(knn.size()),
              "ns");
  const double nq = static_cast<double>(queries->Value() - q0);
  result_.Set("core.rne_index.nodes_visited_per_knn",
              nq > 0 ? static_cast<double>(visited->Value() - v0) / nq : 0.0,
              "count");
}

Result Ladder::Run() {
  root_ = spans_.Begin(std::string("traced.") + WorkloadName(w_), 0, 0);
  if (!SetupLayers()) return result_;
  round_ = Stream(w_, env_.seed, ref_[0].n).Round(0);
  for (const Req& r : round_) {
    if (!r.knn) dist_.push_back(r);
  }
  ModelLayers();
  if (!result_.correct) return result_;
  EngineLayers();
  FrontEndLayers();
  KnnLayer();
  spans_.End(root_);
  const std::string path = env_.work_dir + "/spans.json";
  if (!spans_.WriteJson(path)) result_.Fail("cannot write " + path);
  // The cost of one span, for the tracing overhead: a rung with one span
  // per n requests pays span_ns / n per request.
  SpanLog probe_log;
  constexpr int kProbeSpans = 100000;
  const auto start = Clock::now();
  for (int i = 0; i < kProbeSpans; ++i) {
    probe_log.End(probe_log.Begin("serve.engine.query_batch.w4", 1, kDepth));
  }
  std::printf("trace {\"spans\": %zu, \"file\": \"%s\", \"span_ns\": %.1f}\n",
              spans_.size(), path.c_str(), 1e9 * SecondsSince(start) / kProbeSpans);
  return result_;
}

}  // namespace

Result RunTraced(const Env& env, Workload w) {
  Ladder ladder(env, w);
  return ladder.Run();
}

}  // namespace perfbench
