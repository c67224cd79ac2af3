// Answer parsing, the property checkers, and the Checker that applies them
// to a run's answers. The checkers depend on nothing but their arguments,
// so the self-test can feed them perturbed answers.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_set>

#include "bench.h"

namespace perfbench {
namespace {

/// Answers travel as "%.2f"; allow that rounding plus float kernel error.
double AnswerTolerance(double reference) {
  // Half a unit of the printed "%.2f", plus the float-domain element
  // rounding of the SIMD kernels (kernels.h: <= 1/2 ulp per element).
  return 0.0051 + 2e-6 * std::fabs(reference);
}

std::string Describe(const char* what, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (%.6g vs %.6g)", what, a, b);
  return buf;
}

}  // namespace

DistAnswer ParseDistLine(std::string_view line) {
  DistAnswer a;
  if (line.substr(0, 5) != "DIST ") return a;
  const std::string rest(line.substr(5));
  const size_t space = rest.find(' ');
  a.value_text = rest.substr(0, space);
  char* end = nullptr;
  a.value = std::strtod(a.value_text.c_str(), &end);
  if (a.value_text.empty() || *end != '\0') return a;
  const size_t b = rest.find("backend=");
  if (b == std::string::npos) return a;
  a.backend = rest.substr(b + 8, rest.find(' ', b) - (b + 8));
  a.exact = rest.find("exact=1") != std::string::npos;
  a.cached = rest.find("cached=1") != std::string::npos;
  a.ok = true;
  return a;
}

bool ParseKnnLine(std::string_view line,
                  std::vector<std::pair<uint32_t, double>>* out) {
  out->clear();
  if (line.substr(0, 3) != "KNN") return false;
  const std::string rest(line.substr(3));
  size_t pos = 0;
  while (pos < rest.size()) {
    if (rest[pos] != ' ') return false;
    ++pos;
    const size_t colon = rest.find(':', pos);
    if (colon == std::string::npos) return false;
    const size_t next = std::min(rest.find(' ', colon), rest.size());
    char* end = nullptr;
    const unsigned long v = std::strtoul(rest.c_str() + pos, &end, 10);
    if (end != rest.c_str() + colon) return false;
    const std::string d = rest.substr(colon + 1, next - colon - 1);
    const double dist = std::strtod(d.c_str(), &end);
    if (d.empty() || *end != '\0') return false;
    out->emplace_back(static_cast<uint32_t>(v), dist);
    pos = next;
  }
  return true;
}

std::string CheckFiniteNonNegative(double answer) {
  if (!std::isfinite(answer)) return "non-finite answer";
  if (answer < 0.0) return Describe("negative answer", answer, 0.0);
  return "";
}

std::string CheckSelfZero(double answer) {
  return answer == 0.0 ? "" : Describe("d(s,s) is not 0", answer, 0.0);
}

std::string CheckSymmetric(const std::string& st_text,
                           const std::string& ts_text) {
  if (st_text == ts_text) return "";
  return "DIST s t = " + st_text + " but DIST t s = " + ts_text;
}

std::string CheckTriangle(double st, double su, double ut) {
  const double bound = su + ut;
  if (st <= bound + 3.0 * AnswerTolerance(bound)) return "";
  return Describe("triangle inequality broken: d(s,t) > d(s,u) + d(u,t)", st,
                  bound);
}

std::string CheckCachedEqual(const DistAnswer& first, const DistAnswer& again) {
  if (!again.cached) {
    return "repeated query was not served from the cache (" + again.value_text +
           " " + again.backend + " cached=0)";
  }
  if (first.value_text == again.value_text && first.backend == again.backend) {
    return "";
  }
  return std::string("repeated query answered differently (cached=") +
         (first.cached ? "1" : "0") + " " + first.value_text + " " +
         first.backend + " vs cached=" + (again.cached ? "1" : "0") + " " +
         again.value_text + " " + again.backend + ")";
}

std::string CheckMatchesModel(double answer, double reference) {
  if (std::fabs(answer - reference) <= AnswerTolerance(reference)) return "";
  return Describe("answer differs from the model's L1 x scale", answer,
                  reference);
}

std::string CheckNotStale(double answer, double old_value, double new_value) {
  const bool differ = std::fabs(old_value - new_value) >
                      2.0 * AnswerTolerance(std::max(old_value, new_value));
  if (differ && std::fabs(answer - old_value) <= AnswerTolerance(old_value)) {
    return Describe("stale answer from the replaced model", answer, new_value);
  }
  return "";
}

std::string CheckExact(double answer, double exact) {
  if (std::fabs(answer - exact) <= 0.0051 + 1e-9 * exact) return "";
  return Describe("exact answer differs from Dijkstra", answer, exact);
}

std::string CheckKnn(const std::vector<std::pair<uint32_t, double>>& got,
                     const std::vector<std::pair<uint32_t, double>>& brute,
                     const RefModel& model, uint32_t source) {
  if (got.size() != brute.size()) {
    return Describe("kNN returned a different count", got.size(),
                    brute.size());
  }
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& [v, d] = got[i];
    if (v >= model.n) return Describe("kNN vertex out of range", v, model.n);
    if (!seen.insert(v).second) return Describe("kNN repeats a vertex", v, v);
    const std::string finite = CheckFiniteNonNegative(d);
    if (!finite.empty()) return "kNN " + finite;
    const double truth = model.Dist(source, v);
    if (std::fabs(d - truth) > AnswerTolerance(truth)) {
      return Describe("kNN distance is not the vertex's distance", d, truth);
    }
    if (i > 0 && d + AnswerTolerance(d) < got[i - 1].second) {
      return Describe("kNN not ascending", d, got[i - 1].second);
    }
  }
  std::vector<double> a, b;
  for (const auto& e : got) a.push_back(e.second);
  for (const auto& e : brute) b.push_back(e.second);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > AnswerTolerance(b[i])) {
      return Describe("kNN distances differ from brute force", a[i], b[i]);
    }
  }
  return "";
}

double MeanRelativeError(const std::vector<double>& answers,
                         const std::vector<double>& exact) {
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < answers.size() && i < exact.size(); ++i) {
    if (!(exact[i] > 0.0) || !std::isfinite(exact[i])) continue;
    sum += std::fabs(answers[i] - exact[i]) / exact[i];
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return 0.5 * (hi + *std::max_element(v.begin(), v.begin() + mid));
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

Answer AnswerFromLine(std::string_view line, bool knn) {
  Answer a;
  a.raw = std::string(line);
  if (line.substr(0, 4) == "ERR ") {
    a.error = true;
    return a;
  }
  if (knn) {
    a.parsed = ParseKnnLine(line, &a.knn);
  } else {
    a.dist = ParseDistLine(line);
    a.parsed = a.dist.ok;
  }
  return a;
}

const std::vector<std::pair<uint32_t, double>>& Checker::BruteKnn(
    const RefModel& m, uint32_t s, size_t k) {
  auto& slot = knn_memo_[{&m, s, k}];
  if (slot.empty()) slot = m.Knn(s, k);
  return slot;
}

void Checker::Check(const Req& r, const Answer& a, const RefModel& expect,
                    const RefModel* alt, const RefModel* replaced) {
  if (a.error) {
    ++result_->failed;
    return;
  }
  if (!a.parsed) return result_->Fail("unparseable answer: " + a.raw);
  if (r.knn) {
    CheckKnnAnswer(r, a, expect, alt);
  } else {
    CheckDist(r, a, expect, alt, replaced);
  }
}

void Checker::CheckDist(const Req& r, const Answer& a, const RefModel& expect,
                        const RefModel* alt, const RefModel* replaced) {
  const DistAnswer& d = a.dist;
  const auto fail = [&](const std::string& e) {
    result_->Fail(e + " for QUERY " + std::to_string(r.s) + " " +
                  std::to_string(r.t));
  };
  if (auto e = CheckFiniteNonNegative(d.value); !e.empty()) return fail(e);
  if (r.s == r.t) {
    if (auto e = CheckSelfZero(d.value); !e.empty()) return fail(e);
  }
  if (d.backend != "rne") {
    if (!d.exact) return result_->Fail("unexpected backend " + d.backend);
    const double exact = ExactDistances(*graph_, r.s)[r.t];
    if (auto e = CheckExact(d.value, exact); !e.empty()) fail(e);
    return;
  }
  const double expected = expect.Dist(r.s, r.t);
  std::string e = CheckMatchesModel(d.value, expected);
  if (!e.empty() && alt != nullptr) {
    e = CheckMatchesModel(d.value, alt->Dist(r.s, r.t));
  }
  if (!e.empty()) return fail(e);
  if (replaced != nullptr) {
    e = CheckNotStale(d.value, replaced->Dist(r.s, r.t), expected);
    if (!e.empty()) fail(e);
  }
}

void Checker::CheckKnnAnswer(const Req& r, const Answer& a,
                             const RefModel& expect, const RefModel* alt) {
  std::string e = CheckKnn(a.knn, BruteKnn(expect, r.s, r.t), expect, r.s);
  if (!e.empty() && alt != nullptr) {
    e = CheckKnn(a.knn, BruteKnn(*alt, r.s, r.t), *alt, r.s);
  }
  if (!e.empty()) result_->Fail(e + " for KNN " + std::to_string(r.s));
}

bool Checker::RunProbes(const Probes& p, const RefModel& model,
                        const Exchange& exchange, bool through_cache) {
  const std::vector<Req> bursts[2] = {p.FirstBurst(), p.SecondBurst()};
  std::vector<Answer> answers[2];
  const int sent = through_cache ? 2 : 1;
  for (int b = 0; b < sent; ++b) {
    if (!exchange(bursts[b], &answers[b]) ||
        answers[b].size() != bursts[b].size()) {
      return false;
    }
    result_->attempted += answers[b].size();
    for (size_t i = 0; i < answers[b].size(); ++i) {
      Check(bursts[b][i], answers[b][i], model);
    }
  }
  const std::vector<Answer>& first = answers[0];
  const std::vector<Answer>& second = answers[1];
  // Property checks compare answers with each other; skip any pair where
  // an answer failed outright (already counted above).
  auto usable = [](const Answer& a) { return !a.error && a.parsed; };
  size_t at = p.self.size();
  for (size_t i = 0; i < p.sym.size(); ++i, at += 2) {
    if (!usable(first[at]) || !usable(first[at + 1])) continue;
    const auto e = CheckSymmetric(first[at].dist.value_text,
                                  first[at + 1].dist.value_text);
    if (!e.empty()) result_->Fail(e);
  }
  for (size_t i = 0; i < p.tri.size(); ++i, at += 3) {
    if (!usable(first[at]) || !usable(first[at + 1]) || !usable(first[at + 2])) {
      continue;
    }
    const auto e = CheckTriangle(first[at].dist.value, first[at + 1].dist.value,
                                 first[at + 2].dist.value);
    if (!e.empty()) result_->Fail(e);
  }
  at += p.knn.size();
  // Without a result cache the repeat pairs were answered once, as plain
  // distance requests, and `second` is empty.
  for (size_t i = 0; i < second.size(); ++i) {
    if (!usable(first[at + i]) || !usable(second[i])) continue;
    const auto e = CheckCachedEqual(first[at + i].dist, second[i].dist);
    if (!e.empty()) result_->Fail(e);
  }
  return true;
}

}  // namespace perfbench
