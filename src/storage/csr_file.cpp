#include "storage/csr_file.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

namespace smpst::storage {

namespace {

constexpr std::array<char, 8> kCsrMagic = {'S', 'M', 'P', 'S', 'T',
                                           'C', 'S', 'R'};

[[noreturn]] void fail(const std::string& what) {
  throw StorageError("smpst::storage: " + what);
}

void write_bytes(std::ostream& os, const void* data, std::uint64_t bytes) {
  constexpr std::uint64_t kMaxChunk = std::uint64_t{1} << 30;
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const std::uint64_t take = bytes < kMaxChunk ? bytes : kMaxChunk;
    os.write(p, static_cast<std::streamsize>(take));
    p += take;
    bytes -= take;
  }
}

}  // namespace

void write_csr_file(const Graph& g, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) fail("cannot open for write: " + path);

  const std::uint64_t n = g.num_vertices();
  const std::uint64_t arcs = g.num_arcs();
  std::array<char, kCsrHeaderBytes> header{};
  std::memcpy(header.data(), kCsrMagic.data(), kCsrMagic.size());
  const std::uint32_t version = kCsrFormatVersion;
  std::memcpy(header.data() + 8, &version, sizeof(version));
  const std::uint64_t offsets_pos = kCsrHeaderBytes;
  const std::uint64_t targets_pos =
      kCsrHeaderBytes + sizeof(EdgeId) * (n + 1);
  std::memcpy(header.data() + 16, &n, sizeof(n));
  std::memcpy(header.data() + 24, &arcs, sizeof(arcs));
  std::memcpy(header.data() + 32, &offsets_pos, sizeof(offsets_pos));
  std::memcpy(header.data() + 40, &targets_pos, sizeof(targets_pos));
  os.write(header.data(), header.size());

  // A default-constructed Graph has no offsets array at all, but its file,
  // like any n = 0 CSR, still holds the single offset 0.
  const EdgeId no_offsets[1] = {0};
  write_bytes(os, g.offsets().empty() ? no_offsets : g.offsets().data(),
              sizeof(EdgeId) * (n + 1));
  write_bytes(os, g.targets().data(), sizeof(VertexId) * arcs);
  if (!os) fail("write failed: " + path);
}

CsrFileHeader read_csr_header(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open for read: " + path);
  std::array<char, kCsrHeaderBytes> header{};
  is.read(header.data(), header.size());
  if (!is) fail("truncated CSR header: " + path);
  if (std::memcmp(header.data(), kCsrMagic.data(), kCsrMagic.size()) != 0) {
    fail("bad CSR magic: " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, header.data() + 8, sizeof(version));
  if (version != kCsrFormatVersion) {
    fail("unsupported CSR version " + std::to_string(version) + ": " + path);
  }

  CsrFileHeader h;
  std::memcpy(&h.num_vertices, header.data() + 16, sizeof(h.num_vertices));
  std::memcpy(&h.num_arcs, header.data() + 24, sizeof(h.num_arcs));
  std::memcpy(&h.offsets_pos, header.data() + 32, sizeof(h.offsets_pos));
  std::memcpy(&h.targets_pos, header.data() + 40, sizeof(h.targets_pos));

  // Every size below comes from an untrusted header: check each derived
  // quantity before using it, exactly like the chunked edge-list reader.
  if (h.num_vertices > kInvalidVertex) {
    fail("vertex count exceeds 32-bit id space: " + path);
  }
  constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  if (h.num_vertices + 1 > kMaxU64 / sizeof(EdgeId)) {
    fail("offsets array size overflows: " + path);
  }
  const std::uint64_t offsets_bytes = sizeof(EdgeId) * (h.num_vertices + 1);
  if (h.offsets_pos != kCsrHeaderBytes ||
      h.targets_pos != kCsrHeaderBytes + offsets_bytes) {
    fail("inconsistent CSR section positions: " + path);
  }
  if (h.num_arcs > (kMaxU64 - h.targets_pos) / sizeof(VertexId)) {
    fail("targets array size overflows: " + path);
  }
  h.file_bytes = h.targets_pos + sizeof(VertexId) * h.num_arcs;

  std::error_code ec;
  const std::uint64_t actual = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot stat: " + path);
  if (actual != h.file_bytes) {
    fail("CSR file size mismatch (header implies " +
         std::to_string(h.file_bytes) + " bytes, file has " +
         std::to_string(actual) + "): " + path);
  }
  return h;
}

Graph read_csr_file(const std::string& path) {
  const CsrFileHeader h = read_csr_header(path);
  std::ifstream is(path, std::ios::binary);
  if (!is) fail("cannot open for read: " + path);
  is.seekg(static_cast<std::streamoff>(h.offsets_pos));

  std::vector<EdgeId> offsets(static_cast<std::size_t>(h.num_vertices) + 1);
  is.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(sizeof(EdgeId) * offsets.size()));
  std::vector<VertexId> targets(static_cast<std::size_t>(h.num_arcs));
  is.read(reinterpret_cast<char*>(targets.data()),
          static_cast<std::streamsize>(sizeof(VertexId) * targets.size()));
  if (!is) fail("truncated CSR payload: " + path);
  if (offsets.front() != 0 || offsets.back() != targets.size() ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    fail("corrupt CSR offsets array: " + path);
  }
  for (const VertexId t : targets) {
    if (t >= h.num_vertices) fail("CSR target out of range: " + path);
  }
  return Graph::from_csr(std::move(offsets), std::move(targets));
}

}  // namespace smpst::storage
