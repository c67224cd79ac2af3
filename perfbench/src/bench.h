// Shared declarations of the end-to-end benchmark: the fixed make-up of the
// inputs, the seeded request streams, the answer checkers, child-process
// and /proc helpers, span recording and the result record every mode
// prints. The benchmark only calls the library's public API; it adds no
// instrumentation to the program.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ------------------------------------------------------------------ inputs
// The road network and the model are fixed (like a city data set); the
// --seed argument drives every request stream, probe and check sample.

inline constexpr size_t kGridRows = 64;  // 64 x 64 = 4096 vertices
inline constexpr size_t kGridCols = 64;
inline constexpr uint64_t kGraphSeed = 1;
inline constexpr int kModelDim = 32;
/// Full set-up chains per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// The socket workload: one client thread, kDataConns pipelined
/// connections, each keeping one burst of kDepth requests in flight (kDepth
/// equals rne_server's default --batch, so one burst is one engine batch),
/// plus a control connection with one request in flight at a time.
inline constexpr size_t kDataConns = 2;
inline constexpr size_t kDepth = 64;
/// Engine workers of the served engine: rne_server runs with --threads
/// kEngineWorkers, and inproc-batch's engine and ModelManager have as many.
/// An engine with one worker per CPU (rne_server's default) is bimodal: it
/// stays in a fast state for a whole run or drops into a slow one (see
/// README), so runs on it cannot agree. With one worker, client, reactor
/// and worker are three busy threads and do not oversubscribe a 4-CPU host.
/// The traced run still times the engine at nproc workers.
inline constexpr size_t kEngineWorkers = 1;
/// The first bursts of a round follow the pause in which the previous round
/// was checked, so the server starts them cold; they are answered and
/// checked but not timed. A continuous closed loop has no such pause.
inline constexpr size_t kColdBursts = 32;
/// The socket workload takes throughput, latency percentiles and CPU per
/// query per window of kWindowRequests answered data requests and reports
/// the median over a run's windows, so a stall of the shared host in a few
/// windows does not move the run's figure. A window holds 1024 bursts, so
/// its 90th percentile has about a hundred bursts beyond it and its 99th
/// ten. inproc-batch uses one window per round.
inline constexpr size_t kWindowRequests = 65536;
/// inproc-batch has one latency sample per batch; its latency windows hold
/// kInprocLatencyWindow batches, so each window's 90th percentile has about
/// a hundred samples beyond it and its 99th ten.
inline constexpr size_t kInprocLatencyWindow = 1024;
/// Whole rounds run before the timed phase for at least this long: the
/// zipf-reload cache starts cold, and so do the server's buffers and the
/// CPU caches. The traced run warms each engine as long, since a
/// multi-worker engine starts in a faster state (see README).
inline constexpr double kWarmupSeconds = 3.0;
/// rne_server's default --cache capacity.
inline constexpr size_t kServerCacheEntries = 65536;
inline constexpr size_t kServerCacheShards = 16;
/// zipf-reload: Zipf(kZipfExponent) DIST pairs over kZipfUniverse random
/// pairs (16x the cache). Its rounds are longer so that between two
/// RELOADs (mid-round and end of round) the cache fills and evicts.
inline constexpr size_t kZipfBursts = kColdBursts + 8 * 1024;
inline constexpr size_t kZipfUniverse = 1 << 20;
inline constexpr double kZipfExponent = 1.0;
/// Every round holds one KNN request (k = kKnnK, uniform source) per
/// kKnnEvery bursts of kDepth distance requests. The socket workload sends
/// them on the control connection, one after every kKnnEvery-th completed
/// burst; inproc-batch sends each as its own QueryBatch after the round's
/// batches.
inline constexpr size_t kKnnK = 10;
inline constexpr size_t kKnnEvery = 16;
/// Every round ends, with no traffic beside it, with kQuiescentReloads
/// timed reloads: RELOADs on the control connection, alternating between
/// zipf-reload's two models, or ModelManager::Load of the model in
/// inproc-batch (whose traced run also sends its stream over TCP, with
/// RELOADs of its one model).
inline constexpr size_t kQuiescentReloads = 8;
/// inproc-batch: one caller, batches of kInprocBatch requests.
inline constexpr size_t kInprocBatch = 1024;
inline constexpr size_t kInprocBatchesPerRound = 64;
/// Distinct pairs of round 0 (at most) scored against the exact Dijkstra
/// distance.
inline constexpr size_t kCheckSample = 65536;

enum class Workload { kZipfReload, kInprocBatch };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);
bool IsSocketWorkload(Workload w);
/// Engine batch size of the workload's serving path.
size_t WorkloadBatch(Workload w);

/// The splitmix64 output function: a bijective 64-bit mix.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// splitmix64: small, fast and identical on every platform. The state is
/// mixed from (seed, stream, index), so nearby seeds or rounds do not give
/// shifted copies of one sequence.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream, uint64_t index = 0)
      : state_(Mix64(Mix64(seed + 0x632be59bd9b4e019ULL) ^
                     Mix64(stream * 0x9e3779b97f4a7c15ULL + index))) {}
  uint64_t Next() {
    return Mix64(state_ += 0x9e3779b97f4a7c15ULL);
  }
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 32) * n >> 32);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct Req {
  bool knn = false;
  uint32_t s = 0;
  uint32_t t = 0;  // target vertex, or k for KNN
};

/// Appends "QUERY s t\n" or "KNN s k\n".
void AppendRequestLine(const Req& r, std::string* out);

/// The workload's request stream, generated round by round. Round r is a
/// pure function of (workload, seed, r), so a traced run replays exactly
/// the requests an untraced run sends.
class Stream {
 public:
  Stream(Workload w, uint64_t seed, uint32_t num_vertices);
  /// Requests of one round of the timed phase: DataSize() distance
  /// requests, then the round's KNN requests.
  std::vector<Req> Round(size_t round) const;
  /// The same, into a reused buffer.
  void Round(size_t round, std::vector<Req>* out) const;
  size_t DataSize() const;
  size_t RoundSize() const;

 private:
  Workload workload_;
  uint64_t seed_;
  uint32_t n_;
  std::vector<double> zipf_cdf_;
  std::vector<std::pair<uint32_t, uint32_t>> universe_;
};

/// Property probes sent at the quiescent end of every round (after the
/// data requests were answered); the same composition every round.
struct Probes {
  std::vector<uint32_t> self;                          // d(s,s) = 0
  std::vector<std::pair<uint32_t, uint32_t>> sym;      // d(s,t) = d(t,s)
  std::vector<std::array<uint32_t, 3>> tri;            // triangle s,u,t
  std::vector<std::pair<uint32_t, uint32_t>> repeat;   // cached = uncached
  std::vector<uint32_t> knn;                           // kNN vs brute force
  /// First burst: self, sym (both ways), tri (s-t, s-u, u-t), knn, repeat.
  std::vector<Req> FirstBurst() const;
  /// Second burst: the repeat pairs again, after the first was answered;
  /// sent only on serving paths with a result cache.
  std::vector<Req> SecondBurst() const;
};
Probes MakeProbes(uint64_t seed, size_t round, uint32_t num_vertices);

// ------------------------------------------------------------ exact & ref

/// Directed weighted graph read from the DIMACS file the benchmark wrote,
/// by the benchmark's own parser (the program's loader is not trusted).
struct ExactGraph {
  uint32_t n = 0;
  std::vector<uint32_t> offsets;  // CSR
  std::vector<uint32_t> to;
  std::vector<double> weight;
};
bool ReadDimacsGraph(const std::string& gr_path, ExactGraph* g,
                     std::string* error);
/// Single-source Dijkstra with a binary heap.
std::vector<double> ExactDistances(const ExactGraph& g, uint32_t source);
/// Exact distance for every pair, one Dijkstra per distinct source, spread
/// over `threads` threads.
std::vector<double> ExactPairDistances(
    const ExactGraph& g, const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    size_t threads);

/// A model's rows and scale, copied out of the loaded model: the checkers
/// recompute every learned answer from these with a plain scalar loop.
struct RefModel {
  std::string path;
  size_t dim = 0;
  uint32_t n = 0;
  double scale = 1.0;
  std::vector<float> rows;
  double Dist(uint32_t s, uint32_t t) const;
  /// Brute-force k nearest by L1 x scale over every row, ascending.
  std::vector<std::pair<uint32_t, double>> Knn(uint32_t s, size_t k) const;
  /// Whether every element of row v is finite.
  bool RowFinite(uint32_t v) const;
};
/// Loads `path` with rne::Rne::Load and copies vertex_embeddings()/scale().
bool LoadRefModel(const std::string& path, RefModel* out, std::string* error);

// ------------------------------------------------------------------ checks
// Each checker returns an empty string when the answer passes and a short
// reason otherwise. perfbench_selftest feeds each one perturbed answers.

struct DistAnswer {
  bool ok = false;  // parsed a "DIST ..." line
  double value = 0.0;
  std::string value_text;
  std::string backend;
  bool exact = false;
  bool cached = false;
};
DistAnswer ParseDistLine(std::string_view line);
/// "KNN v:d v:d ..." -> pairs; false when malformed.
bool ParseKnnLine(std::string_view line,
                  std::vector<std::pair<uint32_t, double>>* out);

std::string CheckFiniteNonNegative(double answer);
std::string CheckSelfZero(double answer);
std::string CheckSymmetric(const std::string& st_text,
                           const std::string& ts_text);
std::string CheckTriangle(double st, double su, double ut);
/// The repeat of a query must be served from the cache (cached=1) and equal
/// the answer the backend gave uncached.
std::string CheckCachedEqual(const DistAnswer& first, const DistAnswer& again);
/// Learned answer against the reference model's own value.
std::string CheckMatchesModel(double answer, double reference);
/// After RELOAD OK: an answer equal to the old model's value where the new
/// model's value differs is stale.
std::string CheckNotStale(double answer, double old_value, double new_value);
/// Exact-backend answers must equal the benchmark's Dijkstra distance.
std::string CheckExact(double answer, double exact);
/// kNN answer against brute force: every returned vertex's distance must be
/// its true distance, and the distances must equal the brute-force k
/// smallest as a multiset (ties at the k-th place may pick other ids).
std::string CheckKnn(const std::vector<std::pair<uint32_t, double>>& got,
                     const std::vector<std::pair<uint32_t, double>>& brute,
                     const RefModel& model, uint32_t source);

/// One answer, parsed from a protocol line or taken from an in-process
/// Response.
struct Answer {
  bool error = false;   // "ERR ..." line or non-OK status
  bool parsed = false;  // a well-formed DIST or KNN answer
  DistAnswer dist;
  std::vector<std::pair<uint32_t, double>> knn;
  std::string raw;
};
Answer AnswerFromLine(std::string_view line, bool knn);

struct Result;

/// Applies the checkers to answers and records failures in a Result: an
/// error answer is a failed operation, a wrong answer a failed check.
class Checker {
 public:
  Checker(Result* result, const ExactGraph* graph)
      : result_(result), graph_(graph) {}
  /// The answer must match `expect` (or `alt` when given); when `replaced`
  /// is given it must not be that model's stale value either.
  void Check(const Req& r, const Answer& a, const RefModel& expect,
             const RefModel* alt = nullptr, const RefModel* replaced = nullptr);
  /// Sends a batch of requests and returns one answer per request, in
  /// order; false when the serving path failed outright.
  using Exchange =
      std::function<bool(const std::vector<Req>&, std::vector<Answer>*)>;
  /// Sends the probes' first burst through `exchange` and, when the
  /// serving path has a result cache (`through_cache`), the second; counts
  /// them as attempted operations, and checks every answer and the
  /// properties across them. False when an exchange failed.
  bool RunProbes(const Probes& p, const RefModel& model,
                 const Exchange& exchange, bool through_cache);

 private:
  const std::vector<std::pair<uint32_t, double>>& BruteKnn(const RefModel& m,
                                                           uint32_t s,
                                                           size_t k);
  void CheckDist(const Req& r, const Answer& a, const RefModel& expect,
                 const RefModel* alt, const RefModel* replaced);
  void CheckKnnAnswer(const Req& r, const Answer& a, const RefModel& expect,
                      const RefModel* alt);

  Result* result_;
  const ExactGraph* graph_;
  std::map<std::tuple<const RefModel*, uint32_t, size_t>,
           std::vector<std::pair<uint32_t, double>>>
      knn_memo_;
};

/// Mean |answer - exact| / exact over pairs with exact > 0.
double MeanRelativeError(const std::vector<double>& answers,
                         const std::vector<double>& exact);

// ------------------------------------------------------------------ stats

double Median(std::vector<double> v);
/// Nearest-rank percentile (0 < p <= 100) of `v` (copied).
double Percentile(std::vector<double> v, double p);

// ------------------------------------------------------- processes & host

size_t NumCpus();

/// A child process started with fork+exec; it receives SIGTERM if this
/// process dies first, and the destructor terminates and reaps it.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool Start(const std::vector<std::string>& argv, const std::string& stdout_path,
             const std::string& stderr_path, std::string* error);
  /// Waits for exit; returns the exit code (-1 on signal).
  int Wait();
  /// SIGTERM, then SIGKILL after `grace`; always reaps.
  void Stop(std::chrono::milliseconds grace = std::chrono::milliseconds(5000));
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Runs argv to completion; stdout/stderr go to `log_path`.
bool RunToCompletion(const std::vector<std::string>& argv,
                     const std::string& log_path, std::string* error);

/// VmHWM of `pid` (0 = self) in MiB; negative when unreadable.
double PeakRssMb(pid_t pid);
/// CPU time of every thread of `pid`, in seconds.
double ProcessCpuSeconds(pid_t pid);
/// CPU time of this process (all threads), in seconds, ns resolution.
double SelfCpuSeconds();
/// Time the hypervisor ran something else while the machine's CPUs had
/// work (the steal column of /proc/stat), summed over CPUs, in seconds; 0
/// where the kernel does not report it.
double HostStealSeconds();
/// Which measurement windows the medians use: those in which the host
/// stole no CPU time at all (steal is counted in 10 ms ticks), since the
/// shared host, not the program, slowed the others; when fewer than
/// kMinQuietWindows are left, the kMinQuietWindows least stolen. Returns
/// indexes into `steal_seconds` (one entry per window).
inline constexpr size_t kMinQuietWindows = 8;
std::vector<size_t> QuietWindows(const std::vector<double>& steal_seconds);

std::string ReadFile(const std::string& path);

/// One-line JSON with nproc, kernel backend, THP mode and build type.
std::string HostFactsJson();

// ------------------------------------------------------------------ spans

/// In-memory span log of the traced run: one span per layer call (or per
/// chunk of calls), with its parent; written out when the run ends.
class SpanLog {
 public:
  /// Opens a span and returns its id.
  uint32_t Begin(const std::string& name, uint32_t parent, uint64_t requests);
  void End(uint32_t id);
  bool WriteJson(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    uint32_t parent = 0;
    uint64_t requests = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- result

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  // first few check failures

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  std::string ToJson() const;
};

/// Paths of the binaries and of the run's working directory.
struct Env {
  std::string rne_tool;
  std::string rne_server;
  std::string work_dir;
  uint64_t seed = 1;
  double seconds = 10.0;
};

/// Set-up chain shared by the untraced modes: rne_tool generate, then
/// rne_tool build. Returns false (and fills *error) when a step fails.
bool GenerateAndBuild(const Env& env, std::string* error);
std::string GraphPath(const Env& env);
std::string CoordPath(const Env& env);
std::string ModelPath(const Env& env);
std::string ReloadModelPath(const Env& env);
std::string NonFiniteModelPath(const Env& env);
/// zipf-reload derives from ModelPath a second model at ReloadModelPath
/// (RefineOnline at a normal rate, so its answers differ) and a non-finite
/// one at NonFiniteModelPath (RefineOnline at a diverging rate).
bool DeriveReloadModels(const Env& env, std::string* error);

Result RunSocketWorkload(const Env& env, Workload w);
/// The traced run's TCP rung: sends rounds 0..rounds-1 of `w` with the
/// socket workload's own client and round driver to a server already
/// listening on `port` and serving ModelPath(env) (zipf-reload's derived
/// models must exist). Adds the rounds' operations and checks to *result,
/// records a span per burst under `parent`, and returns each round's
/// data-phase seconds; empty when the connection failed.
std::vector<double> RunSocketRounds(const Env& env, Workload w, uint16_t port,
                                    size_t rounds, SpanLog* spans,
                                    uint32_t parent, Result* result);
Result RunInprocWorkload(const Env& env);
Result RunTraced(const Env& env, Workload w);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
