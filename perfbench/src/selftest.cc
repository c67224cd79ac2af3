// Self-test of the answer checkers: each one must pass a correct answer and
// fail a perturbed one, so a checker that accepts everything is caught.
//
//   .bench_build/perfbench/perfbench_selftest    (exit 0 = all checkers bite)
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "bench.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// `check` returns "" on pass; the correct case must pass, the perturbed
/// case must not.
void Pair(const std::string& name, const std::string& good,
          const std::string& bad) {
  Expect(good.empty(), name + " passes a correct answer" +
                           (good.empty() ? "" : " (" + good + ")"));
  Expect(!bad.empty(), name + " fails a perturbed answer");
}

}  // namespace

int main() {
  using namespace perfbench;
  // A 3-vertex model, d = 2: rows (0,0), (1,0), (3,1); scale 10.
  RefModel m;
  m.dim = 2;
  m.n = 3;
  m.scale = 10.0;
  m.rows = {0, 0, 1, 0, 3, 1};
  // Path 0 - 1 - 2 with weights 10 and 25, plus a shortcut 0 -> 2 of 40.
  ExactGraph g;
  g.n = 3;
  g.offsets = {0, 2, 4, 6};
  g.to = {1, 2, 0, 2, 0, 1};
  g.weight = {10, 40, 10, 25, 40, 25};

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Pair("finite", CheckFiniteNonNegative(12.5), CheckFiniteNonNegative(nan));
  Pair("finite(inf)", CheckFiniteNonNegative(0.0), CheckFiniteNonNegative(inf));
  Pair("non-negative", CheckFiniteNonNegative(1.0), CheckFiniteNonNegative(-0.5));
  Pair("self-zero", CheckSelfZero(0.0), CheckSelfZero(0.01));
  Pair("symmetric", CheckSymmetric("10.00", "10.00"),
       CheckSymmetric("10.00", "10.01"));
  Pair("triangle", CheckTriangle(40.0, 10.0, 30.0), CheckTriangle(40.1, 10.0, 30.0));
  Pair("model", CheckMatchesModel(10.00, m.Dist(0, 1)),
       CheckMatchesModel(10.02, m.Dist(0, 1)));
  Pair("not-stale", CheckNotStale(50.0, 40.0, 50.0), CheckNotStale(40.0, 40.0, 50.0));
  Pair("exact", CheckExact(35.0, ExactDistances(g, 0)[2]),
       CheckExact(40.0, ExactDistances(g, 0)[2]));

  const DistAnswer first = ParseDistLine("DIST 10.00 backend=rne exact=0 fallback=0 cached=0");
  Expect(first.ok && first.value == 10.0 && first.backend == "rne" && !first.cached,
         "ParseDistLine reads value, backend and flags");
  const DistAnswer same = ParseDistLine("DIST 10.00 backend=rne exact=0 fallback=0 cached=1");
  const DistAnswer other = ParseDistLine("DIST 10.01 backend=rne exact=0 fallback=0 cached=1");
  const DistAnswer uncached = ParseDistLine("DIST 10.00 backend=rne exact=0 fallback=0 cached=0");
  Pair("cached", CheckCachedEqual(first, same), CheckCachedEqual(first, other));
  Pair("cached(served from cache)", CheckCachedEqual(first, same),
       CheckCachedEqual(first, uncached));
  const DistAnswer nan_answer =
      ParseDistLine("DIST nan backend=rne exact=0 fallback=0 cached=0");
  Expect(nan_answer.ok && !CheckFiniteNonNegative(nan_answer.value).empty(),
         "a DIST nan answer parses and fails the finiteness check");

  // Brute force from 0: 0 (0), 1 (10), 2 (40).
  const auto brute = m.Knn(0, 2);
  Expect(brute.size() == 2 && brute[0].first == 0 && brute[1].first == 1,
         "brute-force kNN orders by L1 x scale");
  std::vector<std::pair<uint32_t, double>> got;
  Expect(ParseKnnLine("KNN 0:0.00 1:10.00", &got) && got.size() == 2,
         "ParseKnnLine reads pairs");
  std::vector<std::pair<uint32_t, double>> wrong_id, wrong_dist, short_list;
  ParseKnnLine("KNN 0:0.00 2:10.00", &wrong_id);
  ParseKnnLine("KNN 0:0.00 1:10.50", &wrong_dist);
  ParseKnnLine("KNN 0:0.00", &short_list);
  Pair("knn", CheckKnn(got, brute, m, 0), CheckKnn(wrong_id, brute, m, 0));
  Pair("knn(distance)", CheckKnn(got, brute, m, 0), CheckKnn(wrong_dist, brute, m, 0));
  Pair("knn(count)", CheckKnn(got, brute, m, 0), CheckKnn(short_list, brute, m, 0));
  // Ties at the k-th place: rows 1 and 2 equally far from 0 may swap ids.
  RefModel tie = m;
  tie.rows = {0, 0, 1, 0, 0, 1};
  std::vector<std::pair<uint32_t, double>> tied;
  ParseKnnLine("KNN 0:0.00 2:10.00", &tied);
  Expect(CheckKnn(tied, tie.Knn(0, 2), tie, 0).empty(),
         "knn accepts either id at a k-th-place tie");

  Expect(std::fabs(MeanRelativeError({11.0, 20.0}, {10.0, 20.0}) - 0.05) < 1e-12,
         "mean relative error");

  // The Checker counts error answers as failed operations, not failed checks.
  Result result;
  Checker checker(&result, &g);
  checker.Check({false, 0, 1}, AnswerFromLine("ERR UNAVAILABLE: queue full", false), m);
  Expect(result.correct && result.failed == 1, "an ERR answer is a failed operation");
  checker.Check({false, 0, 1}, AnswerFromLine("DIST 10.00 backend=rne exact=0 fallback=0 cached=0", false), m);
  Expect(result.correct, "Checker passes a correct DIST answer");
  checker.Check({false, 0, 1}, AnswerFromLine("DIST 12.00 backend=rne exact=0 fallback=0 cached=0", false), m);
  Expect(!result.correct, "Checker fails a wrong DIST answer");

  std::printf("%s\n", g_failures == 0 ? "all checkers bite" : "SELF-TEST FAILED");
  return g_failures == 0 ? 0 : 1;
}
