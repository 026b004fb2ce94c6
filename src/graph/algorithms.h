// Shared graph algorithms: connectivity, triangle counts, core numbers.
//
// These are the analytical substrates the paper's algorithms rely on:
// NearLinear (§5) maintains a triangle count per edge to test dominance in
// O(1); its one-pass prepass uses a degree ordering; the exact solver and
// the benchmark harness split graphs into connected components.
#ifndef RPMIS_GRAPH_ALGORITHMS_H_
#define RPMIS_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace rpmis {

/// Connected components labelling.
struct ComponentInfo {
  std::vector<Vertex> component_id;  // per vertex, in [0, num_components)
  Vertex num_components = 0;
  /// Vertices grouped by component, concatenated; component c occupies
  /// [offsets[c], offsets[c+1]). Within each component, members appear in
  /// increasing vertex id order (counting sort) — the renaming old id ->
  /// slice position is therefore monotonic, which keeps renamed adjacency
  /// lists sorted (ComponentExtractor relies on this).
  std::vector<Vertex> members;
  std::vector<uint64_t> offsets;

  /// View of component c's member list (no copy).
  std::span<const Vertex> Members(Vertex c) const {
    RPMIS_DASSERT(c < num_components);
    return {members.data() + offsets[c], members.data() + offsets[c + 1]};
  }
};

/// Computes connected components by a non-recursive BFS over one reusable
/// frontier. O(n + m), no per-component allocation.
ComponentInfo ConnectedComponents(const Graph& g);

/// Extracts the connected components of a graph as standalone graphs in
/// O(n_c + m_c) each (O(n + m) for all of them together): the old->new
/// renaming is one shared array filled once, and each component's CSR is
/// assembled directly — no per-component size-n scratch, no edge-list
/// round trip. Extract() is const and safe to call concurrently for
/// different (or equal) components, which is what RunPerComponentParallel
/// does.
class ComponentExtractor {
 public:
  /// Labels components and builds the shared renaming. O(n + m).
  explicit ComponentExtractor(const Graph& g)
      : ComponentExtractor(g, ConnectedComponents(g)) {}

  /// Reuses an existing labelling of exactly this graph.
  ComponentExtractor(const Graph& g, ComponentInfo cc);

  Vertex NumComponents() const { return cc_.num_components; }
  const ComponentInfo& Components() const { return cc_; }
  std::span<const Vertex> Members(Vertex c) const { return cc_.Members(c); }

  /// Position of v inside its component slice, i.e. v's id in Extract()'s
  /// output for component_id[v].
  Vertex LocalId(Vertex v) const { return local_id_[v]; }

  /// Builds component c as a standalone graph. Local ids preserve the
  /// relative order of the original ids (Members(c)[i] -> i).
  Graph Extract(Vertex c) const;

 private:
  const Graph* g_;
  ComponentInfo cc_;
  std::vector<Vertex> local_id_;  // old id -> position within its slice
};

/// Validates that a directed edge count fits the 32-bit edge ids used by
/// ReverseEdgeIndex / EdgeTriangleCounts (the paper's 4m-int space
/// budget); kInvalidVertex itself stays free as a sentinel. Throws
/// std::runtime_error naming the offending count instead of asserting, so
/// callers feeding multi-billion-edge graphs get a diagnosable failure.
/// Exposed for tests (the limit itself is not reachable with test-sized
/// graphs).
void CheckEdgeIdsFit32Bits(uint64_t directed_edges);

/// Per-directed-edge reverse index: for the directed edge id e representing
/// (u, v), result[e] is the id of (v, u). One ascending sweep, O(n + m), no
/// search. Throws via CheckEdgeIdsFit32Bits when the directed edge count
/// exceeds 32 bits.
std::vector<uint32_t> ReverseEdgeIndex(const Graph& g);

/// Per-directed-edge triangle counts δ(u, v) = |N(u) ∩ N(v)| (Lemma 5.2).
/// Both directions of an edge carry the same count. Degree-ordered
/// enumeration: each edge points from the lower to the higher (degree, id)
/// rank, so every out-degree is O(√m) even at hubs; each triangle is found
/// once, by probing out-lists against a mark array, and credits all six of
/// its slots. O(m√m) worst case, near-linear on power-law graphs. `rev`
/// must be ReverseEdgeIndex(g); the one-argument form builds it.
std::vector<uint32_t> EdgeTriangleCounts(const Graph& g,
                                         std::span<const uint32_t> rev);
std::vector<uint32_t> EdgeTriangleCounts(const Graph& g);

/// Total number of triangles in the graph.
uint64_t CountTriangles(const Graph& g);

/// Core decomposition by min-degree peeling.
struct CoreDecomposition {
  std::vector<uint32_t> core;   // core number per vertex
  std::vector<Vertex> order;    // a degeneracy ordering
  uint32_t degeneracy = 0;      // max core number
};

/// Computes core numbers and a degeneracy ordering. O(n + m).
CoreDecomposition ComputeCores(const Graph& g);

/// Summary degree statistics (used by the Table 2 bench and DESIGN checks).
struct DegreeStats {
  uint32_t min_degree = 0;
  uint32_t max_degree = 0;
  double avg_degree = 0.0;
  uint64_t num_degree_le2 = 0;  // vertices the exact reductions feed on
};

DegreeStats ComputeDegreeStats(const Graph& g);

/// Degree histogram: result[d] = number of vertices with degree d
/// (size = max degree + 1; empty for the empty graph).
std::vector<uint64_t> DegreeHistogram(const Graph& g);

/// Global clustering coefficient: 3 * #triangles / #wedges (0 if the
/// graph has no wedge). Planted-core instances have visibly higher values
/// than pure Chung-Lu graphs — the structure dominance feeds on.
double GlobalClusteringCoefficient(const Graph& g);

}  // namespace rpmis

#endif  // RPMIS_GRAPH_ALGORITHMS_H_
