// The socket workload (zipf-reload): rne_server over loopback, driven
// closed loop by one client thread through kDataConns pipelined connections
// plus one control connection (KNN requests, property probes and RELOADs).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>

#include "bench.h"

namespace perfbench {
namespace {

/// One blocking client connection with a line buffer.
class Conn {
 public:
  Conn() = default;
  ~Conn() { Close(); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }
  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }
  int fd() const { return fd_; }

  bool Send(std::string_view data) {
    while (!data.empty()) {
      const ssize_t n = write(fd_, data.data(), data.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data.remove_prefix(static_cast<size_t>(n));
    }
    return true;
  }

  /// Reads whatever is available (call after poll reported POLLIN).
  bool ReadSome() {
    char buf[1 << 16];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    in_.append(buf, static_cast<size_t>(n));
    return true;
  }

  /// Pops the next complete line, if any.
  bool PopLine(std::string_view* line) {
    const size_t nl = in_.find('\n', pos_);
    if (nl == std::string::npos) {
      in_.erase(0, pos_);
      pos_ = 0;
      return false;
    }
    *line = std::string_view(in_).substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  /// Sends `text` and waits for `count` answer lines (30 s limit).
  bool RoundTrip(std::string_view text, size_t count,
                 std::vector<std::string>* lines) {
    lines->clear();
    if (!Send(text)) return false;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (lines->size() < count) {
      std::string_view line;
      if (PopLine(&line)) {
        lines->emplace_back(line);
        continue;
      }
      pollfd p{fd_, POLLIN, 0};
      if (Clock::now() > deadline || poll(&p, 1, 1000) < 0) return false;
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) && !ReadSome()) {
        return false;
      }
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string in_;
  size_t pos_ = 0;
};

bool StartServer(const Env& env, Child* server, uint16_t* port,
                 std::string* error) {
  const std::string log = env.work_dir + "/server.log";
  // Truncate here, not only in the child: the previous server's log must be
  // gone before polling for the new port.
  std::ofstream(log, std::ios::trunc).close();
  if (!server->Start({env.rne_server, "--model", ModelPath(env), "--gr",
                      GraphPath(env), "--co", CoordPath(env), "--listen", "0",
                      "--threads", std::to_string(kEngineWorkers)},
                     env.work_dir + "/server.out", log, error)) {
    return false;
  }
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  const std::string marker = "listening on 127.0.0.1:";
  while (Clock::now() < deadline) {
    const std::string text = ReadFile(log);
    const size_t at = text.find(marker);
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      *port = static_cast<uint16_t>(std::atoi(text.c_str() + at + marker.size()));
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  *error = "rne_server did not start listening: " + ReadFile(log).substr(0, 400);
  return false;
}

/// Which models may have answered a burst: a burst answered before the
/// RELOAD was sent saw only the old model, one sent after RELOAD OK arrived
/// only the new one, and a burst overlapping the swap either.
enum class Allowed : uint8_t { kOld, kNew, kEither };

struct RoundTrace {
  std::string arena;  // every answer line, in request order
  std::vector<std::pair<uint32_t, uint32_t>> answer;  // (offset, length)
  std::vector<Allowed> allowed;  // per request
  double seconds = 0.0;
  double reload_rtt = 0.0;
};

/// The socket workload's client and round driver. Run() is the untraced
/// run against an rne_server child it starts itself; RunAttached() sends
/// whole rounds to a server that is already listening (the traced run's
/// in-process TcpServer), through the same Round().
class SocketRun {
 public:
  SocketRun(const Env& env, Workload w, Result* result)
      : env_(env), w_(w), reloads_(w == Workload::kZipfReload), result_(result) {}

  void Run();
  std::vector<double> RunAttached(uint16_t port, size_t rounds, SpanLog* spans,
                                  uint32_t parent);

 private:
  bool SetUp(uint16_t* port);
  /// Reads back the files set-up wrote: the models and the graph.
  bool LoadInputs();
  bool Connect(uint16_t port);
  /// One whole round: the data phase and its checks, then the probes and
  /// the RELOADs. False (already recorded) when the connection failed.
  bool Round(size_t round, const Stream& stream);
  /// Sends one round: data bursts on the data connections; KNN requests and
  /// the mid-round RELOAD (to `reload_path`, if any) on the control one.
  bool DataPhase(const std::vector<Req>& reqs, size_t data,
                 const std::string& reload_path, RoundTrace* trace);
  void CheckRound(const std::vector<Req>& reqs, const RoundTrace& trace,
                  const RefModel& old_model, const RefModel& new_model);
  bool Probe(size_t round, const RefModel& model);
  /// In zipf-reload, RELOAD of the non-finite model; then the timed
  /// RELOADs, alternating between `model` and `other` and ending on
  /// `model`.
  bool Reloads(const RefModel& model, const RefModel& other);
  /// RELOAD of the non-finite model and two probes on its non-finite rows.
  bool PoisonedReload(const RefModel& model);
  bool Reload(const std::string& path, std::vector<std::string>* lines);
  uint32_t BeginSpan(const char* name, uint32_t parent, uint64_t requests) {
    return spans_ != nullptr ? spans_->Begin(name, parent, requests) : 0;
  }
  void EndSpan(uint32_t id) {
    if (spans_ != nullptr) spans_->End(id);
  }

  const Env& env_;
  const Workload w_;
  const bool reloads_;
  Result* result_;
  Child server_;
  Conn data_[kDataConns];
  Conn control_;
  ExactGraph graph_;
  RefModel models_[2];
  RefModel poisoned_;
  Checker checker_{result_, &graph_};
  /// The model the server serves between rounds (zipf-reload alternates).
  size_t current_ = 0;
  std::vector<Req> reqs_;
  RoundTrace trace_;
  /// Spans of the traced run (null when untraced); rounds open theirs
  /// under `span_parent_`.
  SpanLog* spans_ = nullptr;
  uint32_t span_parent_ = 0;
  struct Window {
    double seconds = 0.0;
    double cpu = 0.0;      // server CPU seconds
    double steal = 0.0;    // host steal seconds
    size_t first = 0;      // range in dist_latency_us_
    size_t last = 0;
  };
  std::vector<Window> windows_;
  /// False during warm-up rounds and in attached runs: their answers are
  /// checked and counted, but not timed.
  bool recording_ = false;
  double timed_ = 0.0;  // data-phase seconds and server CPU of timed rounds
  double cpu_ = 0.0;
  uint64_t answered_ = 0;
  size_t timed_rounds_ = 0;
  std::vector<float> dist_latency_us_;
  std::vector<float> knn_latency_us_;
  std::vector<double> reload_s_;      // quiescent RELOAD round trips
  std::vector<double> reload_s_mid_;  // mid-round RELOADs, under traffic
  std::map<std::pair<uint32_t, uint32_t>, double> check_sample_;
};

bool SocketRun::DataPhase(const std::vector<Req>& reqs, size_t data,
                          const std::string& reload_path, RoundTrace* trace) {
  const size_t bursts = data / kDepth;
  std::vector<std::string> text(bursts);
  for (size_t b = 0; b < bursts; ++b) {
    for (size_t i = 0; i < kDepth; ++i) {
      AppendRequestLine(reqs[b * kDepth + i], &text[b]);
    }
  }
  trace->arena.clear();
  trace->answer.assign(reqs.size(), {0, 0});
  trace->allowed.assign(reqs.size(), Allowed::kOld);
  std::vector<Clock::time_point> sent_at(bursts);
  std::vector<uint64_t> send_seq(bursts), done_seq(bursts);
  std::vector<uint32_t> burst_span(bursts);
  const uint32_t phase_span = BeginSpan("net.tcp.data_phase", span_parent_, reqs.size());
  uint64_t seq = 0, reload_sent_seq = ~0ULL, reload_ok_seq = ~0ULL;
  size_t in_flight[kDataConns], got[kDataConns];
  size_t next = 0, done = 0, next_knn = data;
  bool reload_queued = false, reloaded = false;

  // The control connection carries one request at a time: queued KNN
  // request indexes, or kReload.
  constexpr size_t kReload = ~size_t{0}, kIdle = kReload - 1;
  std::deque<size_t> control_queue;
  size_t control_busy = kIdle;
  Clock::time_point control_sent;
  auto pump_control = [&] {
    if (control_busy != kIdle || control_queue.empty()) return true;
    control_busy = control_queue.front();
    control_queue.pop_front();
    control_sent = Clock::now();
    if (control_busy == kReload) {
      reload_sent_seq = ++seq;
      return control_.Send("RELOAD " + reload_path + "\n");
    }
    trace->allowed[control_busy] = reloaded ? Allowed::kNew : Allowed::kOld;
    std::string line;
    AppendRequestLine(reqs[control_busy], &line);
    return control_.Send(line);
  };
  auto record = [&](size_t idx, std::string_view line) {
    trace->answer[idx] = {static_cast<uint32_t>(trace->arena.size()),
                          static_cast<uint32_t>(line.size())};
    trace->arena.append(line);
  };

  const auto start = Clock::now();
  Window window;
  auto window_start = start;
  auto send_next = [&](size_t c) {
    in_flight[c] = next;
    got[c] = 0;
    send_seq[next] = ++seq;
    burst_span[next] = BeginSpan("net.tcp.burst", phase_span, kDepth);
    sent_at[next] = Clock::now();
    return data_[c].Send(text[next++]);
  };
  for (size_t c = 0; c < kDataConns; ++c) {
    if (!send_next(c)) return false;
  }
  pollfd fds[kDataConns + 1];
  while (done < bursts || !control_queue.empty() || control_busy != kIdle) {
    if (!reload_path.empty() && !reload_queued && done >= bursts / 2) {
      control_queue.push_back(kReload);
      reload_queued = true;
    }
    if (!pump_control()) return false;
    for (size_t c = 0; c < kDataConns; ++c) {
      fds[c] = {data_[c].fd(), POLLIN, 0};
    }
    fds[kDataConns] = {control_.fd(), POLLIN, 0};
    if (poll(fds, kDataConns + 1, 30000) <= 0) return false;
    const auto now = Clock::now();
    for (size_t c = 0; c < kDataConns; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      if (!data_[c].ReadSome()) return false;
      std::string_view line;
      while (data_[c].PopLine(&line)) {
        const size_t burst = in_flight[c];
        record(burst * kDepth + got[c], line);
        if (recording_ && burst >= kColdBursts) {
          dist_latency_us_.push_back(
              static_cast<float>(NanosBetween(sent_at[burst], now) / 1000.0));
        }
        if (++got[c] < kDepth) continue;
        EndSpan(burst_span[burst]);
        done_seq[burst] = ++seq;
        ++done;
        if (recording_ && done >= kColdBursts &&
            (done - kColdBursts) % (kWindowRequests / kDepth) == 0) {
          // Closes a window (or, at the first boundary, the cold bursts).
          const auto t = Clock::now();
          const double cpu = ProcessCpuSeconds(server_.pid());
          const double steal = HostStealSeconds();
          if (done > kColdBursts) {
            window.seconds = std::chrono::duration<double>(t - window_start).count();
            window.last = dist_latency_us_.size();
            window.cpu = cpu - window.cpu;
            window.steal = steal - window.steal;
            windows_.push_back(window);
          }
          window = Window{0.0, cpu, steal, dist_latency_us_.size(), 0};
          window_start = t;
        }
        if (done % kKnnEvery == 0 && next_knn < reqs.size()) {
          control_queue.push_back(next_knn++);
        }
        if (next < bursts && !send_next(c)) return false;
      }
    }
    if (fds[kDataConns].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (!control_.ReadSome()) return false;
      std::string_view line;
      while (control_busy != kIdle && control_.PopLine(&line)) {
        if (control_busy == kReload) {
          trace->reload_rtt = SecondsSince(control_sent);
          reload_ok_seq = ++seq;
          reloaded = true;
          if (line.substr(0, 9) != "RELOAD OK") {
            result_->Fail("RELOAD of a good model refused: " + std::string(line));
            return false;
          }
        } else {
          record(control_busy, line);
          if (recording_) {
            knn_latency_us_.push_back(
                static_cast<float>(NanosBetween(control_sent, now) / 1000.0));
          }
        }
        control_busy = kIdle;
      }
    }
  }
  trace->seconds = SecondsSince(start);
  EndSpan(phase_span);
  if (reloaded) {
    for (size_t b = 0; b < bursts; ++b) {
      const Allowed a = done_seq[b] < reload_sent_seq ? Allowed::kOld
                        : send_seq[b] > reload_ok_seq ? Allowed::kNew
                                                      : Allowed::kEither;
      std::fill_n(trace->allowed.begin() + b * kDepth, kDepth, a);
    }
  }
  return true;
}

void SocketRun::CheckRound(const std::vector<Req>& reqs,
                           const RoundTrace& trace, const RefModel& old_model,
                           const RefModel& new_model) {
  const bool swapped = &old_model != &new_model;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const auto [off, len] = trace.answer[i];
    const Answer a = AnswerFromLine(
        std::string_view(trace.arena).substr(off, len), reqs[i].knn);
    switch (trace.allowed[i]) {
      case Allowed::kOld:
        checker_.Check(reqs[i], a, old_model);
        break;
      case Allowed::kEither:
        checker_.Check(reqs[i], a, new_model, &old_model);
        break;
      case Allowed::kNew:
        // Sent after RELOAD OK: the replaced model's values are stale.
        checker_.Check(reqs[i], a, new_model, nullptr,
                       swapped ? &old_model : nullptr);
        break;
    }
  }
}

bool SocketRun::Probe(size_t round, const RefModel& model) {
  return checker_.RunProbes(
      MakeProbes(env_.seed, round, model.n), model,
      [&](const std::vector<Req>& reqs, std::vector<Answer>* answers) {
        std::string text;
        for (const Req& r : reqs) AppendRequestLine(r, &text);
        std::vector<std::string> lines;
        if (!control_.RoundTrip(text, reqs.size(), &lines)) return false;
        for (size_t i = 0; i < lines.size(); ++i) {
          answers->push_back(AnswerFromLine(lines[i], reqs[i].knn));
        }
        return true;
      },
      /*through_cache=*/true);
}

bool SocketRun::Reload(const std::string& path, std::vector<std::string>* lines) {
  ++result_->attempted;
  return control_.RoundTrip("RELOAD " + path + "\n", 1, lines);
}

bool SocketRun::Reloads(const RefModel& model, const RefModel& other) {
  std::vector<std::string> lines;
  if (reloads_ && !PoisonedReload(model)) return false;
  // Restore `model` (zipf-reload), then time RELOADs with no traffic beside
  // them, alternating and ending on `model`.
  for (size_t i = 0; i <= kQuiescentReloads; ++i) {
    const RefModel& target = i % 2 == 0 ? model : other;
    const auto start = Clock::now();
    if (!Reload(target.path, &lines)) return false;
    if (recording_) reload_s_.push_back(SecondsSince(start));
    if (lines[0].substr(0, 9) != "RELOAD OK") {
      result_->Fail("RELOAD refused: " + lines[0]);
    }
  }
  return true;
}

bool SocketRun::PoisonedReload(const RefModel& model) {
  std::vector<std::string> lines;
  if (!Reload(poisoned_.path, &lines)) return false;
  // A server that publishes a model with non-finite rows fails this
  // operation; the probes (on vertices whose rows are non-finite) show
  // what it then answers.
  const bool published = lines[0].substr(0, 9) == "RELOAD OK";
  uint32_t bad[2] = {0, 1};
  for (uint32_t v = 0, found = 0; v < poisoned_.n && found < 2; ++v) {
    if (!poisoned_.RowFinite(v)) bad[found++] = v;
  }
  const Req probe[2] = {{false, bad[0], bad[1]},
                        {true, bad[0], static_cast<uint32_t>(kKnnK)}};
  std::string text;
  for (const Req& r : probe) AppendRequestLine(r, &text);
  if (!control_.RoundTrip(text, 2, &lines)) return false;
  if (published) {
    ++result_->failed;
    std::printf("poisoned RELOAD published; then: %s | %.80s\n",
                lines[0].c_str(), lines[1].c_str());
  } else {
    checker_.Check(probe[0], AnswerFromLine(lines[0], false), model);
    checker_.Check(probe[1], AnswerFromLine(lines[1], true), model);
  }
  return true;
}

bool SocketRun::SetUp(uint16_t* port) {
  std::string error;
  // Timed from the first rne_tool call to the first served answer, and
  // repeated; the last server stays up for the timed phase.
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (rep > 0) server_.Stop();
    const auto start = Clock::now();
    if (!GenerateAndBuild(env_, &error) ||
        !StartServer(env_, &server_, port, &error)) {
      result_->Fail("set-up failed: " + error);
      return false;
    }
    Conn first;
    std::vector<std::string> answer;
    if (!first.Connect(*port) || !first.RoundTrip("QUERY 0 1\n", 1, &answer) ||
        answer[0].substr(0, 5) != "DIST ") {
      result_->Fail("no first answer from rne_server");
      return false;
    }
    setup.push_back(SecondsSince(start));
  }
  result_->Set("setup_s", Median(setup), "s");
  if (reloads_ && !DeriveReloadModels(env_, &error)) {
    result_->Fail("deriving the reload models failed: " + error);
    return false;
  }
  return LoadInputs() && Connect(*port);
}

bool SocketRun::LoadInputs() {
  std::string error;
  const std::string b_path = reloads_ ? ReloadModelPath(env_) : ModelPath(env_);
  if (!LoadRefModel(ModelPath(env_), &models_[0], &error) ||
      !LoadRefModel(b_path, &models_[1], &error) ||
      (reloads_ && !LoadRefModel(NonFiniteModelPath(env_), &poisoned_, &error)) ||
      !ReadDimacsGraph(GraphPath(env_), &graph_, &error)) {
    result_->Fail("reading the inputs back failed: " + error);
    return false;
  }
  return true;
}

bool SocketRun::Connect(uint16_t port) {
  bool ok = control_.Connect(port);
  for (auto& c : data_) ok = ok && c.Connect(port);
  if (!ok) result_->Fail("connect failed");
  return ok;
}

bool SocketRun::Round(size_t round, const Stream& stream) {
  stream.Round(round, &reqs_);
  const size_t old = current_;
  if (reloads_) current_ = 1 - current_;
  const double cpu0 = recording_ ? ProcessCpuSeconds(server_.pid()) : 0.0;
  if (!DataPhase(reqs_, stream.DataSize(),
                 reloads_ ? models_[current_].path : "", &trace_)) {
    result_->Fail("socket I/O failed in round " + std::to_string(round));
    return false;
  }
  if (recording_) {
    cpu_ += ProcessCpuSeconds(server_.pid()) - cpu0;
    timed_ += trace_.seconds;
    answered_ += reqs_.size();
    ++timed_rounds_;
    if (reloads_) reload_s_mid_.push_back(trace_.reload_rtt);
  }
  result_->attempted += reqs_.size() + (reloads_ ? 1 : 0);
  CheckRound(reqs_, trace_, models_[old], models_[current_]);
  const uint32_t span = BeginSpan("net.tcp.probes_and_reloads", span_parent_, 0);
  const bool ok = Probe(round, models_[current_]) &&
                  Reloads(models_[current_], models_[1 - current_]);
  EndSpan(span);
  if (!ok) result_->Fail("control connection failed in round " + std::to_string(round));
  return ok;
}

std::vector<double> SocketRun::RunAttached(uint16_t port, size_t rounds,
                                           SpanLog* spans, uint32_t parent) {
  spans_ = spans;
  span_parent_ = parent;
  std::vector<double> seconds;
  if (!LoadInputs() || !Connect(port)) return seconds;
  const Stream stream(w_, env_.seed, models_[0].n);
  for (size_t r = 0; r < rounds; ++r) {
    if (!Round(r, stream)) return {};
    seconds.push_back(trace_.seconds);
  }
  return seconds;
}

void SocketRun::Run() {
  uint16_t port = 0;
  if (!SetUp(&port)) return;
  const Stream stream(w_, env_.seed, models_[0].n);
  size_t rounds = 0;
  const auto start = Clock::now();
  auto timed_start = start;
  while (timed_rounds_ == 0 || SecondsSince(timed_start) < env_.seconds) {
    recording_ = rounds > 0 && SecondsSince(start) >= kWarmupSeconds;
    if (recording_ && timed_rounds_ == 0) timed_start = Clock::now();
    if (!Round(rounds, stream)) return;
    if (rounds == 0) {
      for (size_t i = 0; i < stream.DataSize() && check_sample_.size() < kCheckSample;
           ++i) {
        const auto [off, len] = trace_.answer[i];
        const DistAnswer a =
            ParseDistLine(std::string_view(trace_.arena).substr(off, len));
        if (a.ok && a.backend == "rne") {
          check_sample_.emplace(std::make_pair(reqs_[i].s, reqs_[i].t), a.value);
        }
      }
    }
    ++rounds;
  }

  std::vector<std::string> stats;
  if (control_.RoundTrip("STATS\n", 1, &stats)) {
    std::printf("server %s\n", stats[0].c_str());
  }
  result_->Set("rss_peak_mb", PeakRssMb(server_.pid()), "MB");
  for (auto& c : data_) c.Close();
  control_.Close();
  server_.Stop();

  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<double> answers;
  for (const auto& [pair, value] : check_sample_) {
    pairs.push_back(pair);
    answers.push_back(value);
  }
  const double mre =
      MeanRelativeError(answers, ExactPairDistances(graph_, pairs, NumCpus()));
  if (!(mre < 0.2)) result_->Fail("mean relative error above 20%");

  std::vector<double> steal;
  for (const Window& w : windows_) steal.push_back(w.steal);
  const std::vector<size_t> kept = QuietWindows(steal);
  std::vector<double> qps, p50, p90, p99, cpu_us;
  for (size_t i : kept) {
    const Window& w = windows_[i];
    const std::vector<double> lat(dist_latency_us_.begin() + w.first,
                                  dist_latency_us_.begin() + w.last);
    qps.push_back(kWindowRequests / w.seconds);
    p50.push_back(Percentile(lat, 50));
    p90.push_back(Percentile(lat, 90));
    p99.push_back(Percentile(lat, 99));
    cpu_us.push_back(1e6 * w.cpu / kWindowRequests);
  }
  result_->Set("throughput_qps", Median(qps), "q/s");
  result_->Set("latency_p50_us", Median(p50), "us");
  result_->Set("latency_p90_us", Median(p90), "us");
  result_->Set("cpu_us_per_query", Median(cpu_us), "us");
  result_->Set("mean_rel_error", mre, "ratio");
  const std::vector<double> knn(knn_latency_us_.begin(), knn_latency_us_.end());
  result_->Set("knn_p50_us", Percentile(knn, 50), "us");
  result_->Set("reload_s", Median(reload_s_), "s");
  std::printf(
      "info {\"rounds\": %zu, \"timed_s\": %.3f, \"windows\": %zu, "
      "\"dist_samples\": %zu, \"knn_samples\": %zu, \"reload_samples\": %zu, "
      "\"check_pairs\": %zu, \"overall_qps\": %.0f, \"overall_cpu_us\": %.4f, "
      "\"timed_rounds\": %zu, \"mid_round_reload_s\": %.6f, "
      "\"windows_kept\": %zu, \"latency_p99_us\": %.1f}\n",
      rounds, timed_, windows_.size(), dist_latency_us_.size(),
      knn_latency_us_.size(), reload_s_.size(), pairs.size(),
      static_cast<double>(answered_) / timed_,
      1e6 * cpu_ / static_cast<double>(answered_), timed_rounds_,
      Median(reload_s_mid_), kept.size(), Median(p99));
}

}  // namespace

Result RunSocketWorkload(const Env& env, Workload w) {
  Result result;
  SocketRun run(env, w, &result);
  run.Run();
  return result;
}

std::vector<double> RunSocketRounds(const Env& env, Workload w, uint16_t port,
                                    size_t rounds, SpanLog* spans,
                                    uint32_t parent, Result* result) {
  SocketRun run(env, w, result);
  return run.RunAttached(port, rounds, spans, parent);
}

}  // namespace perfbench
