#include "mis/compaction.h"

namespace rpmis {

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

}  // namespace rpmis
