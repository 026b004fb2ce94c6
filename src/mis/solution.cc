#include "mis/solution.h"

#include "obs/metrics.h"

namespace rpmis {

uint64_t RuleCounters::TotalExact() const {
  uint64_t total = 0;
  for (const RuleCounterField& f : kRuleCounterFields) {
    if (f.member != &RuleCounters::peels) total += this->*f.member;
  }
  return total;
}

RuleCounters& RuleCounters::operator+=(const RuleCounters& other) {
  for (const RuleCounterField& f : kRuleCounterFields) {
    this->*f.member += other.*f.member;
  }
  return *this;
}

void MisSolution::MergeStatsFrom(const MisSolution& part) {
  size += part.size;
  peeled += part.peeled;
  residual_peeled += part.residual_peeled;
  kernel_vertices += part.kernel_vertices;
  kernel_edges += part.kernel_edges;
  provably_maximum = provably_maximum && part.provably_maximum;
  rules += part.rules;
  compaction += part.compaction;
}

void MisSolution::PublishMetrics(obs::MetricsRegistry& metrics) const {
  metrics.Set("solution.size", static_cast<double>(size));
  metrics.Set("solution.upper_bound", static_cast<double>(UpperBound()));
  metrics.Set("solution.provably_maximum", provably_maximum ? 1.0 : 0.0);
  metrics.Set("solution.peeled", static_cast<double>(peeled));
  metrics.Set("solution.residual_peeled", static_cast<double>(residual_peeled));
  metrics.Set("kernel.vertices", static_cast<double>(kernel_vertices));
  metrics.Set("kernel.edges", static_cast<double>(kernel_edges));
  for (const RuleCounterField& f : kRuleCounterFields) {
    metrics.Add(f.metric, rules.*f.member);
  }
  metrics.Add("rules.total_exact", rules.TotalExact());
  metrics.Add("compaction.rebuilds", compaction.compactions);
  metrics.Add("compaction.vertices_scanned", compaction.vertices_scanned);
  metrics.Add("compaction.slots_scanned", compaction.slots_scanned);
  metrics.Add("compaction.vertices_kept", compaction.vertices_kept);
  metrics.Add("compaction.slots_kept", compaction.slots_kept);
}

void MisSolution::Finalize(std::span<const uint8_t> peeled_flags) {
  RPMIS_ASSERT(peeled_flags.size() == in_set.size());
  RecountSize();
  peeled = rules.peels;
  residual_peeled = 0;
  for (size_t v = 0; v < peeled_flags.size(); ++v) {
    if (peeled_flags[v] && !in_set[v]) ++residual_peeled;
  }
  provably_maximum = (residual_peeled == 0);
}

uint64_t ExtendToMaximal(const Graph& g, std::vector<uint8_t>& in_set) {
  RPMIS_ASSERT(in_set.size() == g.NumVertices());
  uint64_t added = 0;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (in_set[v]) continue;
    bool blocked = false;
    for (Vertex w : g.Neighbors(v)) {
      if (in_set[w]) {
        blocked = true;
        break;
      }
    }
    if (!blocked) {
      in_set[v] = 1;
      ++added;
    }
  }
  return added;
}

uint64_t ReplayDeferredStack(std::span<const DeferredDecision> stack,
                             std::vector<uint8_t>& in_set) {
  uint64_t added = 0;
  for (size_t i = stack.size(); i-- > 0;) {
    const DeferredDecision& d = stack[i];
    if (in_set[d.v]) continue;
    if (!in_set[d.nb1] && !in_set[d.nb2]) {
      in_set[d.v] = 1;
      ++added;
    }
  }
  return added;
}

}  // namespace rpmis
