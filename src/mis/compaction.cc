#include "mis/compaction.h"

#include "support/assert.h"
#include "support/parallel.h"

namespace rpmis {

namespace {

// Below this many kept vertices the parallel fan-out costs more than the
// fill; both passes run inline (still byte-identical — ParallelChunks is
// deterministic, this is purely a latency knob). mis/working_graph.cc
// uses the same grain for its CSR rebuild.
constexpr size_t kParallelGrain = 4096;

}  // namespace

CompactionStats& CompactionStats::operator+=(const CompactionStats& other) {
  compactions += other.compactions;
  vertices_scanned += other.vertices_scanned;
  slots_scanned += other.slots_scanned;
  vertices_kept += other.vertices_kept;
  slots_kept += other.slots_kept;
  return *this;
}

VertexRenaming BuildRenaming(std::span<const uint8_t> keep) {
  VertexRenaming renaming;
  const Vertex n = static_cast<Vertex>(keep.size());
  renaming.to_new.assign(n, kInvalidVertex);
  for (Vertex v = 0; v < n; ++v) {
    if (keep[v]) {
      renaming.to_new[v] = static_cast<Vertex>(renaming.kept.size());
      renaming.kept.push_back(v);
    }
  }
  return renaming;
}

void BuildCompactEdges(const Graph& g, const VertexRenaming& renaming,
                       std::vector<Edge>* edges) {
  const size_t new_n = renaming.kept.size();
  std::vector<uint64_t> cursor(new_n + 1, 0);
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      uint64_t count = 0;
      for (const Vertex w : g.Neighbors(v)) {
        if (v < w && renaming.to_new[w] != kInvalidVertex) ++count;
      }
      cursor[i + 1] = count;
    }
  });
  for (size_t i = 1; i <= new_n; ++i) cursor[i] += cursor[i - 1];
  edges->resize(cursor[new_n]);
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      uint64_t pos = cursor[i];
      for (const Vertex w : g.Neighbors(v)) {
        if (v < w && renaming.to_new[w] != kInvalidVertex) {
          (*edges)[pos++] = {static_cast<Vertex>(i), renaming.to_new[w]};
        }
      }
    }
  });
}

void BuildCompactEdges(const std::vector<std::vector<Vertex>>& adj,
                       const VertexRenaming& renaming, std::vector<Edge>* edges) {
  const size_t new_n = renaming.kept.size();
  std::vector<uint64_t> cursor(new_n + 1, 0);
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      uint64_t count = 0;
      for (const Vertex w : adj[v]) {
        if (v < w) ++count;
      }
      cursor[i + 1] = count;
    }
  });
  for (size_t i = 1; i <= new_n; ++i) cursor[i] += cursor[i - 1];
  edges->resize(cursor[new_n]);
  ParallelChunks(0, new_n, kParallelGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const Vertex v = renaming.kept[i];
      uint64_t pos = cursor[i];
      for (const Vertex w : adj[v]) {
        if (v < w) (*edges)[pos++] = {static_cast<Vertex>(i), renaming.to_new[w]};
      }
    }
  });
}

}  // namespace rpmis
