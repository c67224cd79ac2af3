// The benchmark's own ground truth: a DIMACS reader and Dijkstra for exact
// distances, and a brute-force L1 scan over a model's rows for kNN.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <thread>

#include "bench.h"
#include "core/rne.h"

namespace perfbench {

bool ReadDimacsGraph(const std::string& gr_path, ExactGraph* g,
                     std::string* error) {
  std::ifstream in(gr_path);
  if (!in) {
    *error = "cannot open " + gr_path;
    return false;
  }
  struct Arc {
    uint32_t u, v;
    double w;
  };
  std::vector<Arc> arcs;
  uint64_t n = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ss(line);
    char tag = 0;
    ss >> tag;
    if (tag == 'p') {
      std::string kind;
      ss >> kind >> n;
      if (!ss || n == 0 || n > std::numeric_limits<uint32_t>::max()) {
        *error = "bad problem line in " + gr_path;
        return false;
      }
    } else if (tag == 'a') {
      uint64_t u = 0, v = 0;
      double w = 0.0;
      ss >> u >> v >> w;
      if (!ss || u == 0 || v == 0 || u > n || v > n || !(w > 0.0)) {
        *error = "bad arc line in " + gr_path + ": " + line;
        return false;
      }
      arcs.push_back({static_cast<uint32_t>(u - 1),
                      static_cast<uint32_t>(v - 1), w});
    }
  }
  if (n == 0) {
    *error = "no problem line in " + gr_path;
    return false;
  }
  g->n = static_cast<uint32_t>(n);
  g->offsets.assign(n + 1, 0);
  for (const Arc& a : arcs) ++g->offsets[a.u + 1];
  for (size_t i = 0; i < n; ++i) g->offsets[i + 1] += g->offsets[i];
  g->to.resize(arcs.size());
  g->weight.resize(arcs.size());
  std::vector<uint32_t> fill(g->offsets.begin(), g->offsets.end() - 1);
  for (const Arc& a : arcs) {
    g->to[fill[a.u]] = a.v;
    g->weight[fill[a.u]++] = a.w;
  }
  return true;
}

std::vector<double> ExactDistances(const ExactGraph& g, uint32_t source) {
  std::vector<double> dist(g.n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (uint32_t e = g.offsets[u]; e < g.offsets[u + 1]; ++e) {
      const double nd = d + g.weight[e];
      if (nd < dist[g.to[e]]) {
        dist[g.to[e]] = nd;
        heap.push({nd, g.to[e]});
      }
    }
  }
  return dist;
}

std::vector<double> ExactPairDistances(
    const ExactGraph& g,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, size_t threads) {
  std::vector<uint32_t> order(pairs.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return pairs[a].first < pairs[b].first;
  });
  // Runs of equal sources, handed out round robin.
  std::vector<std::pair<size_t, size_t>> runs;
  for (size_t i = 0; i < order.size();) {
    size_t j = i;
    while (j < order.size() && pairs[order[j]].first == pairs[order[i]].first) {
      ++j;
    }
    runs.push_back({i, j});
    i = j;
  }
  std::vector<double> out(pairs.size(), 0.0);
  auto work = [&](size_t first) {
    for (size_t r = first; r < runs.size(); r += threads) {
      const auto dist = ExactDistances(g, pairs[order[runs[r].first]].first);
      for (size_t i = runs[r].first; i < runs[r].second; ++i) {
        out[order[i]] = dist[pairs[order[i]].second];
      }
    }
  };
  threads = std::max<size_t>(1, threads);
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (auto& t : pool) t.join();
  return out;
}

double RefModel::Dist(uint32_t s, uint32_t t) const {
  const float* a = rows.data() + static_cast<size_t>(s) * dim;
  const float* b = rows.data() + static_cast<size_t>(t) * dim;
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    sum += std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum * scale;
}

std::vector<std::pair<uint32_t, double>> RefModel::Knn(uint32_t s,
                                                       size_t k) const {
  std::vector<std::pair<uint32_t, double>> all(n);
  for (uint32_t v = 0; v < n; ++v) all[v] = {v, Dist(s, v)};
  k = std::min<size_t>(k, n);
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [](const auto& a, const auto& b) {
                      return a.second < b.second ||
                             (a.second == b.second && a.first < b.first);
                    });
  // A new vector, not all.resize(k): callers memoize the result and must
  // not keep the capacity of all n rows.
  return std::vector<std::pair<uint32_t, double>>(all.begin(), all.begin() + k);
}

bool RefModel::RowFinite(uint32_t v) const {
  const float* row = rows.data() + size_t{v} * dim;
  return std::all_of(row, row + dim, [](float x) { return std::isfinite(x); });
}

bool LoadRefModel(const std::string& path, RefModel* out, std::string* error) {
  auto loaded = rne::Rne::Load(path);
  if (!loaded.ok()) {
    *error = loaded.status().ToString();
    return false;
  }
  const rne::Rne& model = loaded.value();
  const auto& emb = model.vertex_embeddings();
  out->path = path;
  out->dim = emb.dim();
  out->n = static_cast<uint32_t>(emb.rows());
  out->scale = model.scale();
  out->rows.resize(emb.rows() * emb.dim());
  for (size_t v = 0; v < emb.rows(); ++v) {
    const auto row = emb.Row(v);
    std::copy(row.begin(), row.end(), out->rows.begin() + v * emb.dim());
  }
  return true;
}

}  // namespace perfbench
