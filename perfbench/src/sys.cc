// Child processes, /proc readers and host facts.
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/kernels.h"

namespace perfbench {
namespace {

std::string Trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

}  // namespace

Child::~Child() { Stop(); }

bool Child::Start(const std::vector<std::string>& argv,
                  const std::string& stdout_path,
                  const std::string& stderr_path, std::string* error) {
  // Everything the child needs is prepared before fork: between fork and
  // exec it may only make async-signal-safe calls.
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork failed: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    const int out = open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err = stderr_path == stdout_path
                        ? out
                        : open(stderr_path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0 || err < 0) _exit(126);
    dup2(out, STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    const int null_in = open("/dev/null", O_RDONLY);
    if (null_in >= 0) dup2(null_in, STDIN_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  pid_ = pid;
  return true;
}

int Child::Wait() {
  if (pid_ < 0) return -1;
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void Child::Stop(std::chrono::milliseconds grace) {
  if (pid_ < 0) return;
  kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + grace;
  int status = 0;
  while (Clock::now() < deadline) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill(pid_, SIGKILL);
  Wait();
}

bool RunToCompletion(const std::vector<std::string>& argv,
                     const std::string& log_path, std::string* error) {
  Child child;
  if (!child.Start(argv, log_path, log_path, error)) return false;
  const int code = child.Wait();
  if (code != 0) {
    *error = argv[0] + " " + (argv.size() > 1 ? argv[1] : "") +
             " exited with " + std::to_string(code) + ": " +
             Trim(ReadFile(log_path)).substr(0, 400);
    return false;
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double PeakRssMb(pid_t pid) {
  const std::string status = ReadFile(
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status");
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return -1.0;
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;
}

double ProcessCpuSeconds(pid_t pid) {
  // Sum of every thread's on-CPU nanoseconds from schedstat: exact where the
  // 100 Hz utime/stime ticks of /proc/<pid>/stat would quantize a short
  // window by several percent.
  const std::string task_dir = "/proc/" + std::to_string(pid) + "/task";
  double total = 0.0;
  bool any = false;
  if (DIR* dir = opendir(task_dir.c_str())) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] == '.') continue;
      const std::string text =
          ReadFile(task_dir + "/" + entry->d_name + "/schedstat");
      if (text.empty()) continue;
      total += std::strtod(text.c_str(), nullptr) * 1e-9;
      any = true;
    }
    closedir(dir);
  }
  if (any) return total;
  const std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream ss(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && ss >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double HostStealSeconds() {
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream ss(ReadFile("/proc/stat"));
  std::string label;
  unsigned long long v[8] = {};
  ss >> label;
  for (auto& x : v) ss >> x;
  if (label != "cpu" || !ss) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<size_t> QuietWindows(const std::vector<double>& steal_seconds) {
  std::vector<size_t> order(steal_seconds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return steal_seconds[a] < steal_seconds[b];
  });
  size_t quiet = 0;
  while (quiet < order.size() && steal_seconds[order[quiet]] <= 0.0) ++quiet;
  order.resize(std::min(order.size(), std::max(quiet, kMinQuietWindows)));
  return order;
}

size_t NumCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::string HostFactsJson() {
  std::string thp = Trim(ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"));
  if (thp.empty()) thp = "unknown";
  return "{\"nproc\": " + std::to_string(NumCpus()) +
         ", \"kernel_backend\": " + JsonString(rne::KernelBackendName()) +
         ", \"thp\": " + JsonString(thp) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) + "}";
}

}  // namespace perfbench
