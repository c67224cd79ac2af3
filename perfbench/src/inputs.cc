// Workload names and the seeded request streams and probes.
#include <algorithm>
#include <cmath>
#include <string>

#include "bench.h"

namespace perfbench {

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "zipf-reload") {
    *out = Workload::kZipfReload;
  } else if (name == "inproc-batch") {
    *out = Workload::kInprocBatch;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kZipfReload:
      return "zipf-reload";
    case Workload::kInprocBatch:
      return "inproc-batch";
  }
  return "?";
}

bool IsSocketWorkload(Workload w) { return w != Workload::kInprocBatch; }

size_t WorkloadBatch(Workload w) {
  return IsSocketWorkload(w) ? kDepth : kInprocBatch;
}

void AppendRequestLine(const Req& r, std::string* out) {
  out->append(r.knn ? "KNN " : "QUERY ");
  out->append(std::to_string(r.s));
  out->push_back(' ');
  out->append(std::to_string(r.t));
  out->push_back('\n');
}

Stream::Stream(Workload w, uint64_t seed, uint32_t num_vertices)
    : workload_(w), seed_(seed), n_(num_vertices) {
  if (w != Workload::kZipfReload) return;
  // Rank i of the Zipf law maps to the i-th random pair of the universe.
  Rng rng(seed, /*stream=*/1);
  universe_.resize(kZipfUniverse);
  for (auto& pair : universe_) pair = {rng.Below(n_), rng.Below(n_)};
  zipf_cdf_.resize(kZipfUniverse);
  double sum = 0.0;
  for (size_t i = 0; i < kZipfUniverse; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    zipf_cdf_[i] = sum;
  }
  for (double& c : zipf_cdf_) c /= sum;
}

size_t Stream::DataSize() const {
  switch (workload_) {
    case Workload::kZipfReload:
      return kZipfBursts * kDepth;
    case Workload::kInprocBatch:
      return kInprocBatch * kInprocBatchesPerRound;
  }
  return 0;
}

size_t Stream::RoundSize() const {
  return DataSize() + DataSize() / (kDepth * kKnnEvery);
}

std::vector<Req> Stream::Round(size_t round) const {
  std::vector<Req> out;
  Round(round, &out);
  return out;
}

void Stream::Round(size_t round, std::vector<Req>* out) const {
  Rng rng(seed_, /*stream=*/2 + static_cast<uint64_t>(workload_), round);
  out->resize(RoundSize());
  const size_t data = DataSize();
  for (size_t i = 0; i < data; ++i) {
    if (workload_ != Workload::kZipfReload) {
      (*out)[i] = Req{false, rng.Below(n_), rng.Below(n_)};
      continue;
    }
    const size_t rank = static_cast<size_t>(
        std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng.Unit()) -
        zipf_cdf_.begin());
    const auto& pair = universe_[std::min(rank, universe_.size() - 1)];
    (*out)[i] = Req{false, pair.first, pair.second};
  }
  for (size_t i = data; i < out->size(); ++i) {
    (*out)[i] = Req{true, rng.Below(n_), static_cast<uint32_t>(kKnnK)};
  }
}

Probes MakeProbes(uint64_t seed, size_t round, uint32_t n) {
  Rng rng(seed, /*stream=*/8, round);
  Probes p;
  for (int i = 0; i < 4; ++i) p.self.push_back(rng.Below(n));
  for (int i = 0; i < 8; ++i) p.sym.push_back({rng.Below(n), rng.Below(n)});
  for (int i = 0; i < 8; ++i) {
    p.tri.push_back({rng.Below(n), rng.Below(n), rng.Below(n)});
  }
  for (int i = 0; i < 8; ++i) p.repeat.push_back({rng.Below(n), rng.Below(n)});
  for (int i = 0; i < 2; ++i) p.knn.push_back(rng.Below(n));
  return p;
}

std::vector<Req> Probes::FirstBurst() const {
  std::vector<Req> out;
  for (uint32_t s : self) out.push_back({false, s, s});
  for (const auto& [s, t] : sym) {
    out.push_back({false, s, t});
    out.push_back({false, t, s});
  }
  for (const auto& [s, u, t] : tri) {
    out.push_back({false, s, t});
    out.push_back({false, s, u});
    out.push_back({false, u, t});
  }
  for (uint32_t s : knn) out.push_back({true, s, static_cast<uint32_t>(kKnnK)});
  for (const auto& [s, t] : repeat) out.push_back({false, s, t});
  return out;
}

std::vector<Req> Probes::SecondBurst() const {
  std::vector<Req> out;
  for (const auto& [s, t] : repeat) out.push_back({false, s, t});
  return out;
}

}  // namespace perfbench
