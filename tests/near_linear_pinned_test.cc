// Pins NearLinear's outputs on a fixed corpus. A change to the main
// loop's push order can still return a valid set of the same size, which
// no property test notices; these rows catch it. Each row holds the
// FNV-1a hash of the selector, |I|, |F| and the two main-loop rule
// counters. Every graph runs with the prepasses on and off, and each of
// those with compaction off and with frequent rebuilds: compaction never
// changes the output, so both share one row.
//
// On a mismatch the failure message prints the actual row in table form.
// Update a row only for a change that is meant to alter NearLinear's
// decisions, and say so in the change.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "graph/generators.h"
#include "mis/near_linear.h"
#include "mis/verify.h"

namespace rpmis {
namespace {

uint64_t SelectorHash(const std::vector<uint8_t>& in_set) {
  uint64_t h = 14695981039346656037ull;
  for (const uint8_t f : in_set) {
    h ^= f;
    h *= 1099511628211ull;
  }
  return h;
}

struct Pinned {
  const char* graph;
  bool prepasses;
  uint64_t hash;
  uint64_t size;
  uint64_t peeled;
  uint64_t dominance;
  uint64_t degree_two_path;
};

struct CorpusGraph {
  const char* name;
  std::function<Graph()> make;
};

const std::vector<CorpusGraph>& Corpus() {
  static const std::vector<CorpusGraph> corpus = {
      {"cl-2.0-d4", [] { return ChungLuPowerLaw(3000, 2.0, 4, 11); }},
      {"cl-2.0-d12", [] { return ChungLuPowerLaw(3000, 2.0, 12, 12); }},
      {"cl-2.5-d6", [] { return ChungLuPowerLaw(3000, 2.5, 6, 13); }},
      {"cl-2.5-d20", [] { return ChungLuPowerLaw(3000, 2.5, 20, 14); }},
      {"cl-3.0-d4", [] { return ChungLuPowerLaw(3000, 3.0, 4, 15); }},
      {"cl-3.0-d10", [] { return ChungLuPowerLaw(3000, 3.0, 10, 16); }},
      {"cl-3.5-d6", [] { return ChungLuPowerLaw(3000, 3.5, 6, 17); }},
      {"cl-3.5-d20", [] { return ChungLuPowerLaw(3000, 3.5, 20, 18); }},
      {"gnm-sparse", [] { return ErdosRenyiGnm(3000, 4500, 21); }},
      {"gnm-mid", [] { return ErdosRenyiGnm(3000, 12000, 22); }},
      {"gnm-dense", [] { return ErdosRenyiGnm(1500, 22000, 23); }},
      {"ba-2", [] { return BarabasiAlbert(3000, 2, 31); }},
      {"ba-5", [] { return BarabasiAlbert(3000, 5, 32); }},
      {"rmat-11", [] { return RMat(11, 12000, 0.57, 0.19, 0.19, 41); }},
      {"rmat-12", [] { return RMat(12, 30000, 0.57, 0.19, 0.19, 42); }},
      {"grid-40x50", [] { return GridGraph(40, 50); }},
      {"grid-7x300", [] { return GridGraph(7, 300); }},
  };
  return corpus;
}

// Recorded from the solver before the triangle-free sweep skip; the skip
// must not change any of them.
const Pinned kPinned[] = {
    {"cl-2.0-d4", true, 15278102130232967490ull, 2225, 0, 16, 7},
    {"cl-2.0-d4", false, 1442210637545645220ull, 2225, 1, 554, 195},
    {"cl-2.0-d12", true, 17520947589456113526ull, 1791, 0, 92, 53},
    {"cl-2.0-d12", false, 9066421191006813558ull, 1791, 0, 834, 334},
    {"cl-2.5-d6", true, 12656054822321946977ull, 1600, 0, 179, 91},
    {"cl-2.5-d6", false, 17462063226484234694ull, 1599, 5, 1019, 369},
    {"cl-2.5-d20", true, 1654376521802630348ull, 1047, 902, 711, 330},
    {"cl-2.5-d20", false, 1654376521802630348ull, 1047, 902, 711, 330},
    {"cl-3.0-d4", true, 9267984364829473543ull, 1660, 0, 166, 101},
    {"cl-3.0-d4", false, 11999379253265187693ull, 1660, 0, 954, 380},
    {"cl-3.0-d10", true, 17997833781003898647ull, 1168, 674, 756, 377},
    {"cl-3.0-d10", false, 9867250662240765211ull, 1170, 666, 792, 365},
    {"cl-3.5-d6", true, 16094202803017618252ull, 1347, 338, 755, 420},
    {"cl-3.5-d6", false, 11083461247272900157ull, 1348, 340, 887, 421},
    {"cl-3.5-d20", true, 15406679345058801001ull, 750, 1507, 472, 272},
    {"cl-3.5-d20", false, 15406679345058801001ull, 750, 1507, 472, 272},
    {"gnm-sparse", true, 16220804220820844876ull, 1607, 9, 424, 357},
    {"gnm-sparse", false, 14128211339784067353ull, 1606, 8, 934, 449},
    {"gnm-mid", true, 13018117737646837577ull, 1012, 975, 610, 390},
    {"gnm-mid", false, 6803947069289567116ull, 1015, 973, 628, 381},
    {"gnm-dense", true, 3253071148944469704ull, 225, 1056, 134, 84},
    {"gnm-dense", false, 3253071148944469704ull, 225, 1056, 134, 84},
    {"ba-2", true, 441112816475768089ull, 1746, 0, 77, 40},
    {"ba-2", false, 6504696652787871337ull, 1746, 0, 764, 479},
    {"ba-5", true, 5908797691036075088ull, 1261, 477, 864, 392},
    {"ba-5", false, 5908797691036075088ull, 1261, 477, 864, 392},
    {"rmat-11", true, 5508308062551439709ull, 1526, 0, 24, 17},
    {"rmat-11", false, 16264875675634812393ull, 1526, 0, 352, 124},
    {"rmat-12", true, 563524987128907688ull, 3053, 0, 49, 26},
    {"rmat-12", false, 14083064391152123602ull, 3053, 0, 716, 251},
    {"grid-40x50", true, 16923662378910200189ull, 1000, 25, 973, 2},
    {"grid-40x50", false, 16923662378910200189ull, 1000, 25, 973, 2},
    {"grid-7x300", true, 9669970166637231837ull, 1050, 150, 898, 2},
    {"grid-7x300", false, 9669970166637231837ull, 1050, 150, 898, 2},
};

std::string Row(const char* graph, bool prepasses, const MisSolution& s) {
  return "{\"" + std::string(graph) + "\", " + (prepasses ? "true" : "false") +
         ", " + std::to_string(SelectorHash(s.in_set)) + "ull, " +
         std::to_string(s.size) + ", " + std::to_string(s.peeled) + ", " +
         std::to_string(s.rules.dominance) + ", " +
         std::to_string(s.rules.degree_two_path) + "},";
}

TEST(NearLinearPinned, OutputsMatchRecordedRows) {
  size_t checked = 0;
  for (const CorpusGraph& cg : Corpus()) {
    const Graph g = cg.make();
    for (const bool prepasses : {true, false}) {
      const Pinned* pin = nullptr;
      for (const Pinned& p : kPinned) {
        if (std::string(p.graph) == cg.name && p.prepasses == prepasses) pin = &p;
      }
      for (const bool compact : {false, true}) {
        NearLinearOptions opts;
        opts.one_pass_dominance = prepasses;
        opts.lp_reduction = prepasses;
        opts.compaction.enabled = compact;
        opts.compaction.threshold = 0.9;  // rebuild often
        opts.compaction.min_vertices = 1;
        const MisSolution s = RunNearLinear(g, nullptr, opts);
        const std::string row = Row(cg.name, prepasses, s);
        if (pin == nullptr) {
          ADD_FAILURE() << "no pinned row; actual: " << row;
          continue;
        }
        EXPECT_TRUE(VerifyMis(g, s.in_set)) << row;
        EXPECT_EQ(SelectorHash(s.in_set), pin->hash) << row;
        EXPECT_EQ(s.size, pin->size) << row;
        EXPECT_EQ(s.peeled, pin->peeled) << row;
        EXPECT_EQ(s.rules.dominance, pin->dominance) << row;
        EXPECT_EQ(s.rules.degree_two_path, pin->degree_two_path) << row;
        if (compact) {
          EXPECT_GT(s.compaction.compactions, 0u) << row;
        }
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 4 * Corpus().size());
}

}  // namespace
}  // namespace rpmis
