#include "graph/io.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "graph/generators.h"

namespace rpmis {
namespace {

TEST(IoTest, ReadEdgeListWithCommentsAndRemapping) {
  std::istringstream in(
      "# comment\n"
      "% another comment\n"
      "10 20\n"
      "20 30\n"
      "\n"
      "10 30\n");
  Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.NumVertices(), 3u);  // ids 10, 20, 30 remapped densely
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(IoTest, ReadEdgeListRejectsGarbage) {
  std::istringstream in("1 x\n");
  EXPECT_THROW(ReadEdgeList(in), std::runtime_error);
}

TEST(IoTest, EdgeListRoundTrip) {
  Graph g = ErdosRenyiGnm(30, 60, /*seed=*/2);
  std::stringstream buf;
  WriteEdgeList(g, buf);
  Graph h = ReadEdgeList(buf);
  EXPECT_EQ(h.NumEdges(), g.NumEdges());
  // Vertex ids are written in increasing order and remapped in order of
  // first appearance, which may permute isolated-free graphs; edge count
  // plus degree multiset is a robust invariant.
  std::vector<uint32_t> dg, dh;
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 0) dg.push_back(g.Degree(v));
  }
  for (Vertex v = 0; v < h.NumVertices(); ++v) dh.push_back(h.Degree(v));
  std::sort(dg.begin(), dg.end());
  std::sort(dh.begin(), dh.end());
  EXPECT_EQ(dg, dh);
}

TEST(IoTest, DimacsRoundTrip) {
  Graph g = ErdosRenyiGnm(25, 50, /*seed=*/3);
  std::stringstream buf;
  WriteDimacs(g, buf);
  Graph h = ReadDimacs(buf);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.CollectEdges(), g.CollectEdges());
}

TEST(IoTest, DimacsPreservesIsolatedVertices) {
  Graph g = Graph::FromEdges(5, std::vector<Edge>{{0, 1}});
  std::stringstream buf;
  WriteDimacs(g, buf);
  Graph h = ReadDimacs(buf);
  EXPECT_EQ(h.NumVertices(), 5u);
}

TEST(IoTest, DimacsRejectsBadEdges) {
  std::istringstream in("p edge 3 1\ne 0 2\n");  // 0 is invalid (1-based)
  EXPECT_THROW(ReadDimacs(in), std::runtime_error);
  std::istringstream in2("e 1 2\n");  // edge before problem line
  EXPECT_THROW(ReadDimacs(in2), std::runtime_error);
}

TEST(IoTest, MetisRoundTrip) {
  Graph g = ErdosRenyiGnm(20, 40, /*seed=*/4);
  std::stringstream buf;
  WriteMetis(g, buf);
  Graph h = ReadMetis(buf);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.CollectEdges(), g.CollectEdges());
}

TEST(IoTest, MetisRejectsTruncated) {
  std::istringstream in("3 2\n2\n");  // declares 3 vertices, provides 1 line
  EXPECT_THROW(ReadMetis(in), std::runtime_error);
}

TEST(IoTest, FileRoundTrip) {
  Graph g = CycleGraph(12);
  const std::string path = ::testing::TempDir() + "/rpmis_io_test.txt";
  WriteEdgeListFile(g, path);
  Graph h = ReadEdgeListFile(path);
  EXPECT_EQ(h.NumEdges(), 12u);
  EXPECT_THROW(ReadEdgeListFile("/nonexistent/rpmis"), std::runtime_error);
}

TEST(IoTest, BinaryRoundTrip) {
  Graph g = ErdosRenyiGnm(500, 2000, /*seed=*/12);
  std::stringstream buf;
  WriteBinary(g, buf);
  Graph h = ReadBinary(buf);
  EXPECT_EQ(h.NumVertices(), g.NumVertices());
  EXPECT_EQ(h.CollectEdges(), g.CollectEdges());
}

TEST(IoTest, BinaryRejectsCorruption) {
  std::istringstream junk("not a graph at all");
  EXPECT_THROW(ReadBinary(junk), std::runtime_error);
  Graph g = CycleGraph(6);
  std::stringstream buf;
  WriteBinary(g, buf);
  std::string payload = buf.str();
  std::istringstream truncated(payload.substr(0, payload.size() / 2));
  EXPECT_THROW(ReadBinary(truncated), std::runtime_error);
}

TEST(IoTest, BinaryFileRoundTrip) {
  Graph g = GridGraph(6, 7);
  const std::string path = ::testing::TempDir() + "/rpmis_io_test.rpmi";
  WriteBinaryFile(g, path);
  Graph h = ReadBinaryFile(path);
  EXPECT_EQ(h.CollectEdges(), g.CollectEdges());
}

// ---- hardened error handling (fast + legacy paths) ----------------------

/// Runs `fn`, which must throw std::runtime_error, and returns the message.
template <typename Fn>
std::string CaptureError(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::runtime_error";
  return "";
}

TEST(IoTest, EdgeListRejectsTrailingGarbageWithLineNumber) {
  const std::string text =
      "# header\n"
      "1 2\n"
      "3 4 junk\n";
  const std::string legacy = CaptureError([&] {
    std::istringstream in(text);
    ReadEdgeList(in);
  });
  EXPECT_NE(legacy.find("trailing garbage"), std::string::npos) << legacy;
  EXPECT_NE(legacy.find("line 3"), std::string::npos) << legacy;

  const std::string fast = CaptureError([&] { ParseEdgeList(text); });
  EXPECT_NE(fast.find("trailing garbage"), std::string::npos) << fast;
  EXPECT_NE(fast.find("line 3"), std::string::npos) << fast;
}

TEST(IoTest, FastEdgeListMatchesLegacyNumbering) {
  const std::string text =
      "# comment\n"
      "% another\n"
      "10 20\n"
      "\n"
      "20 30\n"
      "10 30\n";
  std::istringstream in(text);
  Graph legacy = ReadEdgeList(in);
  Graph fast = ParseEdgeList(text);
  EXPECT_EQ(fast.NumVertices(), legacy.NumVertices());
  EXPECT_EQ(fast.CollectEdges(), legacy.CollectEdges());
}

TEST(IoTest, FastEdgeListHandlesCrlf) {
  Graph g = ParseEdgeList("1 2\r\n2 3\r\n# c\r\n\r\n3 1\r\n");
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(IoTest, FastEdgeListMultiChunkMatchesSerialAndReportsGlobalLine) {
  // Build a >4 MB path graph so the parallel scanner actually splits the
  // buffer into several chunks (chunk floor is 1 MB).
  setenv("RPMIS_THREADS", "4", 1);
  constexpr size_t kLines = 400000;
  std::string text;
  text.reserve(kLines * 16);
  for (size_t i = 0; i < kLines; ++i) {
    text += std::to_string(i + 100000);
    text += ' ';
    text += std::to_string(i + 100001);
    text += '\n';
  }
  ASSERT_GT(text.size(), size_t{4} << 20);
  Graph g = ParseEdgeList(text);
  EXPECT_EQ(g.NumVertices(), kLines + 1);
  EXPECT_EQ(g.NumEdges(), kLines);

  // An error deep in a late chunk must still report its file-global line.
  const std::string bad = text + "7 8 oops\n";
  const std::string msg = CaptureError([&] { ParseEdgeList(bad); });
  EXPECT_NE(msg.find("line " + std::to_string(kLines + 1)), std::string::npos)
      << msg;
  unsetenv("RPMIS_THREADS");
}

TEST(IoTest, DimacsRejectsTrailingGarbage) {
  const std::string on_edge = CaptureError([&] {
    std::istringstream in("p edge 3 1\ne 1 2 junk\n");
    ReadDimacs(in);
  });
  EXPECT_NE(on_edge.find("line 2"), std::string::npos) << on_edge;
  const std::string on_header = CaptureError([&] {
    std::istringstream in("p edge 3 1 junk\ne 1 2\n");
    ReadDimacs(in);
  });
  EXPECT_NE(on_header.find("problem line"), std::string::npos) << on_header;
}

TEST(IoTest, DimacsRejectsHeaderCountMismatch) {
  const std::string msg = CaptureError([&] {
    std::istringstream in("p edge 3 2\ne 1 2\n");
    ReadDimacs(in);
  });
  EXPECT_NE(msg.find("header declares 2"), std::string::npos) << msg;
}

TEST(IoTest, DimacsHostileHeaderDoesNotPreallocate) {
  // A tiny file whose header claims ~1e14 edges: the reserve is capped by
  // the file size, so this must throw a mismatch error instead of dying
  // on a giant allocation.
  const std::string msg = CaptureError([&] {
    std::istringstream in("p edge 4 98765432109876\ne 1 2\n");
    ReadDimacs(in);
  });
  EXPECT_NE(msg.find("header declares"), std::string::npos) << msg;
}

TEST(IoTest, MetisRejectsHeaderCountMismatch) {
  const std::string msg = CaptureError([&] {
    std::istringstream in("3 2\n2\n1\n\n");  // 2 entries, header wants 4
    ReadMetis(in);
  });
  EXPECT_NE(msg.find("header declares 2"), std::string::npos) << msg;
}

TEST(IoTest, MetisHostileHeaderDoesNotPreallocate) {
  const std::string msg = CaptureError([&] {
    std::istringstream in("2 99999999999999\n2\n1\n");
    ReadMetis(in);
  });
  EXPECT_NE(msg.find("header declares"), std::string::npos) << msg;
}

TEST(IoTest, MetisRejectsBadNeighbour) {
  for (const char* text : {"2 1\n3\n1\n", "2 1\n0\n1\n"}) {
    const std::string msg = CaptureError([&] {
      std::istringstream in(text);
      ReadMetis(in);
    });
    EXPECT_NE(msg.find("neighbour for vertex 1"), std::string::npos) << msg;
  }
}

TEST(IoTest, MetisBlankLineIsIsolatedVertex) {
  std::istringstream in("3 1\n2\n1\n\n");
  Graph g = ReadMetis(in);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.Degree(2), 0u);
}

TEST(IoTest, MetisRejectsWeightedFormat) {
  std::istringstream in("2 1 1\n2 1\n1 2\n");
  const std::string msg = CaptureError([&] { ReadMetis(in); });
  EXPECT_NE(msg.find("weighted"), std::string::npos) << msg;
}

// ---- binary format hardening --------------------------------------------

/// Assembles a raw RPMI payload; fields are NOT validated, so tests can
/// craft corrupt files.
std::string RawBinary(uint64_t n, uint64_t m,
                      const std::vector<uint64_t>& offsets,
                      const std::vector<uint32_t>& neighbors) {
  std::string s;
  const uint32_t version = 1;
  const auto put = [&s](const void* p, size_t k) {
    s.append(static_cast<const char*>(p), k);
  };
  s.append("RPMI", 4);
  put(&version, 4);
  put(&n, 8);
  put(&m, 8);
  put(offsets.data(), offsets.size() * sizeof(uint64_t));
  put(neighbors.data(), neighbors.size() * sizeof(uint32_t));
  return s;
}

Graph ReadRaw(const std::string& payload) {
  std::istringstream in(payload);
  return ReadBinary(in);
}

TEST(IoTest, BinaryRejectsTruncationNamingVertex) {
  std::stringstream buf;
  WriteBinary(CycleGraph(6), buf);
  const std::string payload = buf.str();
  const std::string msg = CaptureError(
      [&] { ReadRaw(payload.substr(0, payload.size() - 4)); });
  EXPECT_NE(msg.find("neighbour data for vertex"), std::string::npos) << msg;
}

TEST(IoTest, BinaryRejectsHostileVertexCountUpFront) {
  // Header claims 4e9 vertices in a 24-byte file: the offset table alone
  // would be 32 GB, so the up-front length check must fire.
  const std::string msg = CaptureError(
      [&] { ReadRaw(RawBinary(4000000000ull, 0, {}, {})); });
  EXPECT_NE(msg.find("declares 4000000000 vertices"), std::string::npos) << msg;
}

TEST(IoTest, BinaryRejectsTrailingBytes) {
  std::stringstream buf;
  WriteBinary(CycleGraph(6), buf);
  const std::string msg =
      CaptureError([&] { ReadRaw(buf.str() + "xx"); });
  EXPECT_NE(msg.find("2 trailing bytes"), std::string::npos) << msg;
}

TEST(IoTest, BinaryRejectsStructuralCorruption) {
  // Asymmetric: v0 -> 1 but N(1) = {2}.
  EXPECT_NE(CaptureError([&] {
              ReadRaw(RawBinary(3, 1, {0, 1, 2, 2}, {1, 2}));
            }).find("not symmetric"),
            std::string::npos);
  // Unsorted adjacency list at v0.
  EXPECT_NE(CaptureError([&] {
              ReadRaw(RawBinary(3, 2, {0, 2, 3, 4}, {2, 1, 0, 0}));
            }).find("not sorted"),
            std::string::npos);
  // Self-loop.
  EXPECT_NE(CaptureError([&] {
              ReadRaw(RawBinary(2, 1, {0, 1, 2}, {0, 0}));
            }).find("self-loop at vertex 0"),
            std::string::npos);
  // Out-of-range neighbour names both the value and the vertex.
  EXPECT_NE(CaptureError([&] {
              ReadRaw(RawBinary(2, 1, {0, 1, 2}, {5, 0}));
            }).find("neighbour 5 at vertex 0"),
            std::string::npos);
  // Non-monotone offsets (vertex 0's slice is kept clean so the offset
  // check is the first to fire).
  EXPECT_NE(CaptureError([&] {
              ReadRaw(RawBinary(3, 1, {0, 2, 1, 2}, {1, 2}));
            }).find("offsets at vertex 1"),
            std::string::npos);
}

TEST(IoTest, BinaryRejectsSliceEndPastNeighbourArray) {
  // offsets[n] == 2m holds, but vertex 0's slice claims 1000 entries of a
  // 2-entry array; the check must fire before any of it is read.
  EXPECT_NE(CaptureError([&] {
              ReadRaw(RawBinary(3, 1, {0, 1000, 1001, 2}, {1, 2}));
            }).find("offsets at vertex 0"),
            std::string::npos);
}

TEST(IoTest, BinaryCorruptionErrorNamesLowestVertex) {
  // Two corruptions far apart in a sidecar with n >= 2^16 (large enough
  // for a chunked check to split it), at one and at four threads: the
  // error names the lower vertex either way.
  constexpr Vertex kN = 70000;
  std::stringstream buf;
  WriteBinary(CycleGraph(kN), buf);
  std::string payload = buf.str();
  // Vertex v's slice of the cycle is {v - 1, v + 1} at slots 2v, 2v + 1.
  const size_t neighbors_at = 24 + (size_t{kN} + 1) * sizeof(uint64_t);
  const auto put_slot = [&](uint64_t slot, uint32_t value) {
    std::memcpy(payload.data() + neighbors_at + slot * sizeof(uint32_t),
                &value, sizeof(value));
  };
  put_slot(2 * 100, 5000000);        // out-of-range neighbour at vertex 100
  put_slot(2 * 69000 + 1, 69000);    // self-loop at vertex 69000
  for (const char* threads : {"1", "4"}) {
    setenv("RPMIS_THREADS", threads, 1);
    const std::string msg = CaptureError([&] { ReadRaw(payload); });
    EXPECT_NE(msg.find("neighbour 5000000 at vertex 100"), std::string::npos)
        << threads << ": " << msg;
  }
  unsetenv("RPMIS_THREADS");
}

// ---- LoadGraphFile: format sniffing + sidecar cache ----------------------

TEST(IoTest, GuessGraphFormatByExtension) {
  EXPECT_EQ(GuessGraphFormat("a/b/x.txt"), GraphFormat::kEdgeList);
  EXPECT_EQ(GuessGraphFormat("x.edges"), GraphFormat::kEdgeList);
  EXPECT_EQ(GuessGraphFormat("x.DIMACS"), GraphFormat::kDimacs);
  EXPECT_EQ(GuessGraphFormat("x.col"), GraphFormat::kDimacs);
  EXPECT_EQ(GuessGraphFormat("x.clq"), GraphFormat::kDimacs);
  EXPECT_EQ(GuessGraphFormat("x.graph"), GraphFormat::kMetis);
  EXPECT_EQ(GuessGraphFormat("x.metis"), GraphFormat::kMetis);
  EXPECT_EQ(GuessGraphFormat("x.rpmi"), GraphFormat::kBinary);
  EXPECT_EQ(GuessGraphFormat("x.bin"), GraphFormat::kBinary);
}

TEST(IoTest, LoadGraphFileSniffsDimacs) {
  const std::string path = ::testing::TempDir() + "/rpmis_sniff.dimacs";
  {
    std::ofstream out(path);
    WriteDimacs(CycleGraph(7), out);
  }
  LoadOptions opts;
  opts.use_cache = false;
  Graph g = LoadGraphFile(path, opts);
  EXPECT_EQ(g.NumVertices(), 7u);
  EXPECT_EQ(g.NumEdges(), 7u);
  std::filesystem::remove(path);
}

TEST(IoTest, LoadGraphFileWritesAndUsesCache) {
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/rpmis_cache_test.txt";
  const std::string cache = GraphCachePath(path);
  fs::remove(path);
  fs::remove(cache);

  WriteEdgeListFile(CycleGraph(8), path);
  EXPECT_EQ(LoadGraphFile(path).NumEdges(), 8u);
  ASSERT_TRUE(fs::exists(cache)) << "sidecar cache not written";

  // Replace the sidecar with a different graph. It is fresher than the
  // source, so the loader must serve it — proving the cache is consulted.
  WriteBinaryFile(CycleGraph(5), cache);
  EXPECT_EQ(LoadGraphFile(path).NumEdges(), 5u);

  // Touching the source invalidates the sidecar: the file is reparsed and
  // the cache rewritten.
  fs::last_write_time(path,
                      fs::last_write_time(cache) + std::chrono::seconds(2));
  EXPECT_EQ(LoadGraphFile(path).NumEdges(), 8u);
  EXPECT_EQ(LoadGraphFile(path).NumEdges(), 8u);

  // A corrupt (but fresh) sidecar is ignored and regenerated, not fatal.
  {
    std::ofstream junk(cache, std::ios::trunc);
    junk << "junk";
  }
  fs::last_write_time(cache,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  EXPECT_EQ(LoadGraphFile(path).NumEdges(), 8u);

  fs::remove(path);
  fs::remove(cache);
}

TEST(IoTest, LoadGraphFileHonoursNoCache) {
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/rpmis_nocache_test.txt";
  const std::string cache = GraphCachePath(path);
  fs::remove(path);
  fs::remove(cache);
  WriteEdgeListFile(CycleGraph(4), path);
  LoadOptions opts;
  opts.use_cache = false;
  EXPECT_EQ(LoadGraphFile(path, opts).NumEdges(), 4u);
  EXPECT_FALSE(fs::exists(cache));
  fs::remove(path);
}

}  // namespace
}  // namespace rpmis
