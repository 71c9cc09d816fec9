// Content-addressed result memoization for the job server.
//
// A completed, verified run is a pure function of the *semantic* inputs:
// the algorithm (name + version), its params, the graph spec, the run seed
// and the round cap. Everything else the server can vary — thread count,
// scheduler, budgets that never triggered — is bit-identity-neutral by the
// engine's contract (DESIGN.md §11), so it is deliberately EXCLUDED from the
// key: a result computed on 8 threads serves a 1-thread resubmission.
//
// Values are stored through store/ArtifactStore (atomic temp+fsync+rename;
// crash-safe) framed with the standard artifact header. The payload is the
// RunRecord's JSON line verbatim, so a memo hit re-emits the original
// record byte-identically. Corrupt or version-skewed artifacts decode as a
// miss (recompute and overwrite), matching the store-wide policy.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "serve/registry.hpp"
#include "store/artifact_store.hpp"

namespace ckp {

// The semantic identity of one run, before hashing. Assembled by the
// server from an admitted job; the canonical string is also surfaced in
// responses so clients can debug unexpected misses.
struct MemoFacts {
  std::string algorithm;
  int algo_version = 0;
  KV params;
  GraphSpec graph;
  std::uint64_t seed = 0;
  int max_rounds = 0;

  // Deterministic "k=v;" rendering: params in sorted key order (KV is an
  // ordered map), every field present even at its default.
  std::string canonical() const;
};

// Store key for `facts`: "memo_<fnv1a64(canonical)>_<algorithm>". The hash
// carries the identity; the trailing algorithm name is a human debugging
// aid for anyone listing the store directory.
std::string memo_key(const MemoFacts& facts);

// RunRecord-JSONL-valued memo table over an ArtifactStore.
class ResultMemo {
 public:
  explicit ResultMemo(const ArtifactStore* store) : store_(store) {}

  bool enabled() const { return store_ != nullptr; }

  // The memoized RunRecord JSON line for `facts`, or nullopt when absent,
  // corrupt, or framed with an unexpected version (both treated as a miss).
  std::optional<std::string> lookup(const MemoFacts& facts) const;

  // Commits `record_json` (one RunRecord line) under facts' key.
  void insert(const MemoFacts& facts, const std::string& record_json) const;

 private:
  const ArtifactStore* store_;  // not owned; nullptr disables memoization
};

}  // namespace ckp
