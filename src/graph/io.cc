#include "graph/io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/obs.h"
#include "obs/trace.h"
#include "support/mmap_file.h"
#include "support/parallel.h"

namespace rpmis {

namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("rpmis::io: " + what);
}

bool IsCommentOrBlank(const std::string& line) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == '#' || c == '%';
  }
  return true;  // blank
}

// ---- raw-buffer scanning primitives (the fast path) ---------------------

bool IsLineSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

const char* SkipLineSpace(const char* p, const char* eol) {
  while (p < eol && IsLineSpace(*p)) ++p;
  return p;
}

const char* FindEol(const char* p, const char* end) {
  const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
  return nl == nullptr ? end : static_cast<const char*>(nl);
}

/// Parses one unsigned integer at `p`, advancing it past the digits.
/// Returns false on no digits or overflow.
bool ParseUint(const char*& p, const char* eol, uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(p, eol, out);
  if (ec != std::errc() || ptr == p) return false;
  p = ptr;
  return true;
}

// The per-edge-count caps used to bound `reserve` calls driven by file
// headers: a corrupt or hostile header must not be able to force an
// allocation larger than the file could possibly describe. The divisors
// are the minimum bytes one edge/entry can occupy in each format.
size_t DimacsReserveCap(size_t file_bytes) { return file_bytes / 6 + 16; }
size_t MetisReserveCap(size_t file_bytes) { return file_bytes / 2 + 16; }

// ---- edge lists ---------------------------------------------------------

struct EdgeListChunk {
  std::vector<std::pair<uint64_t, uint64_t>> raw;
  uint64_t max_id = 0;
  size_t lines = 0;       // lines scanned, including an erroring one
  std::string error;      // empty = clean scan
  size_t error_line = 0;  // 1-based within this chunk
};

void ScanEdgeListChunk(const char* p, const char* end, EdgeListChunk& out) {
  auto error = [&out](const char* what) {
    out.error = what;
    out.error_line = out.lines;
  };
  while (p < end) {
    const char* eol = FindEol(p, end);
    ++out.lines;
    const char* q = SkipLineSpace(p, eol);
    if (q == eol || *q == '#' || *q == '%') {
      p = eol + 1;
      continue;
    }
    uint64_t a = 0, b = 0;
    if (!ParseUint(q, eol, a)) return error("malformed edge");
    q = SkipLineSpace(q, eol);
    if (!ParseUint(q, eol, b)) return error("malformed edge");
    q = SkipLineSpace(q, eol);
    if (q != eol) return error("trailing garbage after edge");
    out.max_id = std::max(out.max_id, std::max(a, b));
    out.raw.emplace_back(a, b);
    p = eol + 1;
  }
}

}  // namespace

Graph ReadEdgeList(std::istream& in) {
  // Legacy line-at-a-time parser: kept as the simple reference for
  // arbitrary streams (and as the baseline bench_micro_io compares the
  // buffer parser against). Grammar matches ParseEdgeList.
  std::unordered_map<uint64_t, Vertex> remap;
  std::vector<Edge> edges;
  std::string line;
  auto intern = [&](uint64_t raw) {
    auto [it, inserted] = remap.emplace(raw, static_cast<Vertex>(remap.size()));
    (void)inserted;
    return it->second;
  };
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsCommentOrBlank(line)) continue;
    std::istringstream ls(line);
    uint64_t a = 0, b = 0;
    if (!(ls >> a >> b)) Fail("malformed edge at line " + std::to_string(line_no));
    std::string rest;
    if (ls >> rest) {
      Fail("trailing garbage after edge at line " + std::to_string(line_no));
    }
    edges.emplace_back(intern(a), intern(b));
  }
  return Graph::FromEdges(static_cast<Vertex>(remap.size()), edges);
}

Graph ParseEdgeList(std::string_view text) {
  const char* base = text.data();
  const char* end = base + text.size();

  // Chunk at newline boundaries; each chunk is scanned independently.
  constexpr size_t kMinChunkBytes = 1 << 20;
  const size_t chunks = std::clamp<size_t>(text.size() / kMinChunkBytes, 1,
                                           NumThreads());
  std::vector<const char*> bounds(chunks + 1);
  bounds[0] = base;
  bounds[chunks] = end;
  for (size_t k = 1; k < chunks; ++k) {
    const char* target = base + (text.size() / chunks) * k;
    const char* nl = FindEol(target, end);
    bounds[k] = nl == end ? end : nl + 1;
  }
  std::vector<EdgeListChunk> parts(chunks);
  RunParallel(chunks, [&](size_t k) {
    ScanEdgeListChunk(bounds[k], bounds[k + 1], parts[k]);
  });

  // Surface the first error in file order with its global line number.
  size_t lines_before = 0;
  size_t total = 0;
  uint64_t max_id = 0;
  for (const EdgeListChunk& part : parts) {
    if (!part.error.empty()) {
      Fail(part.error + " at line " +
           std::to_string(lines_before + part.error_line));
    }
    lines_before += part.lines;
    total += part.raw.size();
    max_id = std::max(max_id, part.max_id);
  }

  // Intern raw ids densely in order of first appearance — sequential so
  // the numbering is identical to the legacy reader. When the raw id
  // space is already near-dense (the common case for SNAP/LAW exports) a
  // flat array replaces the hash map.
  std::vector<Edge> edges;
  edges.reserve(total);
  Vertex next = 0;
  if (total > 0 && max_id < std::max<uint64_t>(size_t{1} << 20, 4 * total)) {
    std::vector<Vertex> map(max_id + 1, kInvalidVertex);
    for (const EdgeListChunk& part : parts) {
      for (const auto& [a, b] : part.raw) {
        if (map[a] == kInvalidVertex) map[a] = next++;
        if (map[b] == kInvalidVertex) map[b] = next++;
        edges.emplace_back(map[a], map[b]);
      }
    }
  } else {
    std::unordered_map<uint64_t, Vertex> remap;
    remap.reserve(total);
    auto intern = [&](uint64_t raw) {
      auto [it, inserted] = remap.emplace(raw, next);
      if (inserted) ++next;
      return it->second;
    };
    for (const EdgeListChunk& part : parts) {
      for (const auto& [a, b] : part.raw) {
        const Vertex u = intern(a);
        edges.emplace_back(u, intern(b));
      }
    }
  }
  return Graph::FromEdges(next, edges);
}

Graph ReadEdgeListFile(const std::string& path) {
  MmapFile file = MmapFile::Open(path);
  return ParseEdgeList(file.view());
}

namespace {

// ---- buffered text output ----------------------------------------------
// The writers format into one reused string flushed in megabyte blocks;
// with std::to_chars this is an order of magnitude faster than streaming
// each integer through operator<<.

class BufferedOut {
 public:
  explicit BufferedOut(std::ostream& out) : out_(out) {
    buf_.reserve(kFlushAt + 64);
  }
  ~BufferedOut() { Flush(); }

  void Ch(char c) {
    buf_.push_back(c);
    MaybeFlush();
  }
  void Str(std::string_view s) {
    buf_.append(s);
    MaybeFlush();
  }
  void U(uint64_t value) {
    char tmp[20];
    const auto r = std::to_chars(tmp, tmp + sizeof(tmp), value);
    buf_.append(tmp, r.ptr);
    MaybeFlush();
  }
  void Flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr size_t kFlushAt = 1 << 20;
  void MaybeFlush() {
    if (buf_.size() >= kFlushAt) Flush();
  }

  std::ostream& out_;
  std::string buf_;
};

}  // namespace

void WriteEdgeList(const Graph& g, std::ostream& out) {
  BufferedOut b(out);
  b.Str("# rpmis edge list: ");
  b.U(g.NumVertices());
  b.Str(" vertices, ");
  b.U(g.NumEdges());
  b.Str(" edges\n");
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) {
      if (v < w) {
        b.U(v);
        b.Ch(' ');
        b.U(w);
        b.Ch('\n');
      }
    }
  }
}

void WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) Fail("cannot open " + path + " for writing");
  WriteEdgeList(g, out);
  out.flush();
  if (!out) Fail("write failed for " + path);
}

// ---- DIMACS -------------------------------------------------------------

Graph ParseDimacs(std::string_view text) {
  const char* p = text.data();
  const char* end = p + text.size();
  size_t line_no = 0;
  Vertex n = 0;
  uint64_t declared_m = 0;
  bool saw_problem = false;
  std::vector<Edge> edges;

  while (p < end) {
    const char* eol = FindEol(p, end);
    ++line_no;
    const char* q = SkipLineSpace(p, eol);
    if (q == eol) {
      p = eol + 1;
      continue;
    }
    const char kind = *q++;
    if (kind == 'p') {
      if (saw_problem) {
        Fail("duplicate DIMACS problem line at line " + std::to_string(line_no));
      }
      q = SkipLineSpace(q, eol);
      const char* fmt_begin = q;
      while (q < eol && !IsLineSpace(*q)) ++q;  // format token, e.g. "edge"
      uint64_t nn = 0, mm = 0;
      q = SkipLineSpace(q, eol);
      if (fmt_begin == q || !ParseUint(q, eol, nn)) Fail("bad DIMACS problem line");
      q = SkipLineSpace(q, eol);
      if (!ParseUint(q, eol, mm)) Fail("bad DIMACS problem line");
      q = SkipLineSpace(q, eol);
      if (q != eol) {
        Fail("trailing garbage in DIMACS problem line at line " +
             std::to_string(line_no));
      }
      if (nn > static_cast<uint64_t>(kInvalidVertex) - 1) {
        Fail("DIMACS vertex count exceeds supported range");
      }
      n = static_cast<Vertex>(nn);
      declared_m = mm;
      // Cap by what the file could physically contain so a hostile header
      // cannot trigger a huge allocation; the true count is validated at
      // the end of the parse.
      edges.reserve(std::min<uint64_t>(mm, DimacsReserveCap(text.size())));
      saw_problem = true;
    } else if (kind == 'e') {
      if (!saw_problem) Fail("DIMACS edge before problem line");
      q = SkipLineSpace(q, eol);
      uint64_t a = 0, b = 0;
      if (!ParseUint(q, eol, a)) {
        Fail("bad DIMACS edge at line " + std::to_string(line_no));
      }
      q = SkipLineSpace(q, eol);
      if (!ParseUint(q, eol, b)) {
        Fail("bad DIMACS edge at line " + std::to_string(line_no));
      }
      q = SkipLineSpace(q, eol);
      if (q != eol || a == 0 || b == 0 || a > n || b > n) {
        Fail("bad DIMACS edge at line " + std::to_string(line_no));
      }
      edges.emplace_back(static_cast<Vertex>(a - 1), static_cast<Vertex>(b - 1));
    }
    // 'c' and unknown kinds are comments/extensions: ignored.
    p = eol + 1;
  }
  if (!saw_problem) Fail("missing DIMACS problem line");
  if (edges.size() != declared_m) {
    Fail("DIMACS header declares " + std::to_string(declared_m) +
         " edges but file contains " + std::to_string(edges.size()));
  }
  return Graph::FromEdges(n, edges);
}

Graph ReadDimacs(std::istream& in) { return ParseDimacs(ReadStreamToString(in)); }

Graph ReadDimacsFile(const std::string& path) {
  MmapFile file = MmapFile::Open(path);
  return ParseDimacs(file.view());
}

void WriteDimacs(const Graph& g, std::ostream& out) {
  BufferedOut b(out);
  b.Str("p edge ");
  b.U(g.NumVertices());
  b.Ch(' ');
  b.U(g.NumEdges());
  b.Ch('\n');
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    for (Vertex w : g.Neighbors(v)) {
      if (v < w) {
        b.Str("e ");
        b.U(v + 1);
        b.Ch(' ');
        b.U(w + 1);
        b.Ch('\n');
      }
    }
  }
}

// ---- METIS --------------------------------------------------------------

Graph ParseMetis(std::string_view text) {
  const char* p = text.data();
  const char* end = p + text.size();
  size_t line_no = 0;

  // Header: n m [fmt], preceded by optional '%' comment lines.
  uint64_t n = 0, m = 0;
  bool have_header = false;
  while (p < end && !have_header) {
    const char* eol = FindEol(p, end);
    ++line_no;
    if (p < eol && *p == '%') {
      p = eol + 1;
      continue;
    }
    const char* q = SkipLineSpace(p, eol);
    if (!ParseUint(q, eol, n)) Fail("bad METIS header");
    q = SkipLineSpace(q, eol);
    if (!ParseUint(q, eol, m)) Fail("bad METIS header");
    q = SkipLineSpace(q, eol);
    if (q != eol) {
      uint64_t fmt = 0;
      if (!ParseUint(q, eol, fmt)) Fail("bad METIS header");
      if (fmt != 0) Fail("weighted METIS files are not supported");
      q = SkipLineSpace(q, eol);
      if (q != eol) Fail("trailing garbage in METIS header");
    }
    have_header = true;
    p = eol + 1;
  }
  if (!have_header) Fail("empty METIS file");
  if (n > static_cast<uint64_t>(kInvalidVertex) - 1) {
    Fail("METIS vertex count exceeds supported range");
  }

  std::vector<Edge> edges;
  // Each undirected edge appears once per endpoint's line: 2*m entries.
  // Cap by file size against hostile headers; validated below.
  const size_t cap = MetisReserveCap(text.size());
  edges.reserve(m < cap / 2 ? static_cast<size_t>(2 * m) : cap);
  uint64_t entries = 0;
  Vertex v = 0;
  while (v < n && p < end) {
    const char* eol = FindEol(p, end);
    ++line_no;
    if (p < eol && *p == '%') {
      p = eol + 1;
      continue;
    }
    const char* q = SkipLineSpace(p, eol);
    while (q < eol) {
      uint64_t w = 0;
      if (!ParseUint(q, eol, w) || w == 0 || w > n) {
        Fail("bad METIS neighbour for vertex " + std::to_string(v + 1) +
             " at line " + std::to_string(line_no));
      }
      edges.emplace_back(v, static_cast<Vertex>(w - 1));
      ++entries;
      q = SkipLineSpace(q, eol);
    }
    ++v;
    p = eol + 1;
  }
  if (v != n) {
    Fail("METIS file truncated: expected " + std::to_string(n) +
         " vertex lines, found " + std::to_string(v));
  }
  if (entries != 2 * m) {
    Fail("METIS header declares " + std::to_string(m) +
         " edges but adjacency lists contain " + std::to_string(entries) +
         " entries");
  }
  return Graph::FromEdges(static_cast<Vertex>(n), edges);
}

Graph ReadMetis(std::istream& in) { return ParseMetis(ReadStreamToString(in)); }

Graph ReadMetisFile(const std::string& path) {
  MmapFile file = MmapFile::Open(path);
  return ParseMetis(file.view());
}

void WriteMetis(const Graph& g, std::ostream& out) {
  BufferedOut b(out);
  b.U(g.NumVertices());
  b.Ch(' ');
  b.U(g.NumEdges());
  b.Ch('\n');
  for (Vertex v = 0; v < g.NumVertices(); ++v) {
    bool first = true;
    for (Vertex w : g.Neighbors(v)) {
      if (!first) b.Ch(' ');
      b.U(w + 1);
      first = false;
    }
    b.Ch('\n');
  }
}

// ---- binary CSR snapshot ------------------------------------------------

namespace {

constexpr char kBinaryMagic[4] = {'R', 'P', 'M', 'I'};
constexpr uint32_t kBinaryVersion = 1;
constexpr size_t kBinaryHeaderBytes = 4 + 4 + 8 + 8;

template <typename T>
T LoadRaw(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

Graph ParseBinary(std::string_view bytes) {
  if (bytes.size() < kBinaryHeaderBytes) Fail("truncated binary graph header");
  const char* base = bytes.data();
  if (std::memcmp(base, kBinaryMagic, 4) != 0) Fail("bad binary graph magic");
  if (LoadRaw<uint32_t>(base + 4) != kBinaryVersion) {
    Fail("unsupported binary graph version");
  }
  const uint64_t n = LoadRaw<uint64_t>(base + 8);
  const uint64_t m = LoadRaw<uint64_t>(base + 16);
  if (n > static_cast<uint64_t>(kInvalidVertex) - 1) {
    Fail("binary graph vertex count exceeds supported range");
  }

  // Validate the payload length before touching any of it (a truncated
  // file must fail here, not after O(m) work).
  const size_t remaining = bytes.size() - kBinaryHeaderBytes;
  const uint64_t offsets_bytes = (n + 1) * sizeof(uint64_t);
  if (offsets_bytes > remaining) {
    Fail("truncated binary graph: header declares " + std::to_string(n) +
         " vertices but only " + std::to_string(remaining) +
         " payload bytes are present");
  }
  const uint64_t neighbor_budget = remaining - offsets_bytes;
  std::vector<uint64_t> offsets(n + 1);
  std::memcpy(offsets.data(), base + kBinaryHeaderBytes, offsets_bytes);
  if (m > neighbor_budget / (2 * sizeof(Vertex))) {
    // Neighbour section is short: name the first vertex whose adjacency
    // slice falls past the end of the file.
    const uint64_t available_words = neighbor_budget / sizeof(Vertex);
    uint64_t bad = n;
    for (uint64_t v = 0; v < n; ++v) {
      if (offsets[v + 1] > available_words) {
        bad = v;
        break;
      }
    }
    Fail("truncated binary graph: neighbour data for vertex " +
         std::to_string(bad) + " extends past end of file (header declares " +
         std::to_string(m) + " edges)");
  }
  const uint64_t neighbor_bytes = 2 * m * sizeof(Vertex);
  if (offsets_bytes + neighbor_bytes != remaining) {
    Fail("binary graph has " +
         std::to_string(remaining - offsets_bytes - neighbor_bytes) +
         " trailing bytes");
  }

  if (offsets[0] != 0) Fail("corrupt binary offsets: offsets[0] != 0");
  if (offsets[n] != 2 * m) {
    Fail("corrupt binary offsets: offsets[n] = " + std::to_string(offsets[n]) +
         ", expected 2m = " + std::to_string(2 * m));
  }
  std::vector<Vertex> neighbors(2 * m);
  std::memcpy(neighbors.data(), base + kBinaryHeaderBytes + offsets_bytes,
              neighbor_bytes);

  // Full structural validation (errors name the lowest offending vertex),
  // then the arrays are adopted as-is — no re-sort, no FromEdges rebuild.
  // A slice must end inside the neighbour array before any of it is read.
  for (uint64_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1] || offsets[v + 1] > 2 * m) {
      Fail("corrupt binary offsets at vertex " + std::to_string(v));
    }
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const Vertex w = neighbors[i];
      if (w >= n) {
        Fail("corrupt binary neighbour " + std::to_string(w) +
             " at vertex " + std::to_string(v));
      }
      if (w == v) Fail("binary graph has a self-loop at vertex " + std::to_string(v));
      if (i > offsets[v] && neighbors[i - 1] >= w) {
        Fail("binary adjacency list of vertex " + std::to_string(v) +
             " is not sorted and duplicate-free");
      }
    }
  }
  // Symmetry in O(m): scanning v in ascending order, the occurrences of a
  // fixed w across adjacency lists arrive in ascending v — so they must
  // consume N(w) front to back exactly. Every entry is consumed once
  // (counts match by construction), so a single pass of cursor checks
  // proves {v : w in N(v)} == N(w) for all w.
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint64_t v = 0; v < n; ++v) {
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const Vertex w = neighbors[i];
      if (cursor[w] >= offsets[w + 1] || neighbors[cursor[w]] != v) {
        Fail("binary graph is not symmetric: edge (" + std::to_string(v) +
             ", " + std::to_string(w) + ") has no reverse entry");
      }
      ++cursor[w];
    }
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

}  // namespace

void WriteBinary(const Graph& g, std::ostream& out) {
  const uint64_t n = g.NumVertices();
  const uint64_t m = g.NumEdges();
  out.write(kBinaryMagic, 4);
  out.write(reinterpret_cast<const char*>(&kBinaryVersion), sizeof(uint32_t));
  out.write(reinterpret_cast<const char*>(&n), sizeof(uint64_t));
  out.write(reinterpret_cast<const char*>(&m), sizeof(uint64_t));
  std::vector<uint64_t> offsets(n + 1);
  for (uint64_t v = 0; v < n; ++v) offsets[v] = g.EdgeBegin(static_cast<Vertex>(v));
  offsets[n] = 2 * m;
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(uint64_t)));
  if (m > 0) {
    // Adjacency slices are contiguous in CSR order, so the whole
    // neighbour array can be emitted in one write.
    out.write(reinterpret_cast<const char*>(g.Neighbors(0).data()),
              static_cast<std::streamsize>(2 * m * sizeof(Vertex)));
  }
}

Graph ReadBinary(std::istream& in) { return ParseBinary(ReadStreamToString(in)); }

void WriteBinaryFile(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) Fail("cannot open " + path + " for writing");
  WriteBinary(g, out);
  out.flush();
  if (!out) Fail("write failed for " + path);
}

Graph ReadBinaryFile(const std::string& path) {
  MmapFile file = MmapFile::Open(path);
  return ParseBinary(file.view());
}

// ---- one-stop loader + sidecar cache ------------------------------------

GraphFormat GuessGraphFormat(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  const size_t dot = base.find_last_of('.');
  if (dot == std::string::npos) return GraphFormat::kEdgeList;
  std::string ext = base.substr(dot + 1);
  for (char& c : ext) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (ext == "rpmi" || ext == "bin") return GraphFormat::kBinary;
  if (ext == "dimacs" || ext == "col" || ext == "clq") return GraphFormat::kDimacs;
  if (ext == "graph" || ext == "metis") return GraphFormat::kMetis;
  return GraphFormat::kEdgeList;
}

std::string GraphCachePath(const std::string& path) { return path + ".rpmi"; }

Graph LoadGraphFile(const std::string& path, const LoadOptions& options) {
  obs::TraceSpan span(obs::Trace(), "ingest.load_graph");
  namespace fs = std::filesystem;
  const GraphFormat format = options.format == GraphFormat::kAuto
                                 ? GuessGraphFormat(path)
                                 : options.format;
  if (format == GraphFormat::kBinary) return ReadBinaryFile(path);

  const std::string cache = GraphCachePath(path);
  if (options.use_cache) {
    std::error_code cache_ec, source_ec;
    const auto cache_time = fs::last_write_time(cache, cache_ec);
    const auto source_time = fs::last_write_time(path, source_ec);
    if (!cache_ec && !source_ec && cache_time >= source_time) {
      try {
        return ReadBinaryFile(cache);
      } catch (const std::exception&) {
        // Corrupt or incompatible cache: fall through and rebuild it.
      }
    }
  }

  MmapFile file = MmapFile::Open(path);
  Graph g;
  switch (format) {
    case GraphFormat::kEdgeList:
      g = ParseEdgeList(file.view());
      break;
    case GraphFormat::kDimacs:
      g = ParseDimacs(file.view());
      break;
    case GraphFormat::kMetis:
      g = ParseMetis(file.view());
      break;
    default:
      Fail("unsupported format for " + path);
  }

  if (options.use_cache) {
    // Best effort: a read-only directory simply skips the cache. Write to
    // a temp name and rename so readers never observe a partial cache.
    const std::string tmp = cache + ".tmp";
    std::error_code ec;
    try {
      WriteBinaryFile(g, tmp);
      fs::rename(tmp, cache, ec);
      if (ec) fs::remove(tmp, ec);
    } catch (const std::exception&) {
      fs::remove(tmp, ec);
    }
  }
  return g;
}

}  // namespace rpmis
