#include "store/artifact_store.hpp"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "store/serialize.hpp"
#include "util/check.hpp"

namespace ckp {

namespace fs = std::filesystem;

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {
  CKP_CHECK_MSG(!dir_.empty(), "artifact store: empty directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  CKP_CHECK_MSG(!ec && fs::is_directory(dir_),
                "artifact store: cannot create directory " << dir_);
}

std::string ArtifactStore::sanitize_key(const std::string& key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out += safe ? c : '_';
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string ArtifactStore::path_for(const std::string& key) const {
  return (fs::path(dir_) / (sanitize_key(key) + ".ckpa")).string();
}

bool ArtifactStore::has(const std::string& key) const {
  std::error_code ec;
  return fs::is_regular_file(path_for(key), ec);
}

std::optional<std::string> ArtifactStore::load(const std::string& key) const {
  std::ifstream is(path_for(key), std::ios::binary);
  if (!is.good()) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  CKP_CHECK_MSG(!is.bad(), "artifact store: read failed for " << key);
  return std::move(buf).str();
}

void ArtifactStore::commit(const std::string& key,
                           std::string_view bytes) const {
  // Unique temp name per call so concurrent commits from pool workers never
  // collide; same directory as the final path so rename() is atomic.
  static std::atomic<std::uint64_t> counter{0};
  const std::string final_path = path_for(key);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
    CKP_CHECK_MSG(os.good(),
                  "artifact store: cannot open temp file " << tmp_path);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    CKP_CHECK_MSG(os.good(), "artifact store: write failed for " << tmp_path);
  }
  // Flush file data to disk before the rename publishes it, then the
  // directory entry afterwards, so the committed state survives a crash at
  // any point (at worst the temp file is orphaned, never the final name
  // torn).
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    CKP_CHECK_MSG(false, "artifact store: rename to " << final_path
                                                      << " failed");
  }
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

namespace {

// Shared load-or-compute shape for the typed helpers: a decode failure is
// reported and treated as a miss.
template <typename T>
T load_or_compute(const ArtifactStore& store, const std::string& key,
                  const std::function<T()>& make,
                  T (*decode)(std::string_view), std::string (*encode)(const T&),
                  bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  if (const auto bytes = store.load(key)) {
    try {
      T out = decode(*bytes);
      if (cache_hit != nullptr) *cache_hit = true;
      return out;
    } catch (const CheckFailure& e) {
      std::cerr << "[store] discarding corrupt artifact '" << key
                << "': " << e.what() << '\n';
    }
  }
  T out = make();
  store.commit(key, encode(out));
  return out;
}

}  // namespace

Graph ArtifactStore::graph(const std::string& key,
                           const std::function<Graph()>& make,
                           bool* cache_hit) const {
  return load_or_compute<Graph>(*this, key, make, &graph_from_bytes,
                                &graph_to_bytes, cache_hit);
}

BipartiteProblem ArtifactStore::problem(
    const std::string& key, const std::function<BipartiteProblem()>& make,
    bool* cache_hit) const {
  return load_or_compute<BipartiteProblem>(*this, key, make,
                                           &problem_from_bytes,
                                           &problem_to_bytes, cache_hit);
}

EdgeColoredGraph ArtifactStore::edge_colored_graph(
    const std::string& key, const std::function<EdgeColoredGraph()>& make,
    bool* cache_hit) const {
  return load_or_compute<EdgeColoredGraph>(
      *this, key, make, &edge_colored_graph_from_bytes,
      &edge_colored_graph_to_bytes, cache_hit);
}

}  // namespace ckp
