// String-keyed algorithm registry and graph-spec builder.
//
// The registry is the one place that knows how to run and verify each
// engine algorithm. The job server binds an algorithm by name at admission
// time: a job names an algorithm ("luby", "greedy", ...), a graph family,
// KV params, and a seed, and make_algorithm() returns the adapter that runs
// the packed roster entry behind it. bench_scale (E18) loops over the same
// adapters, timing execute() and then calling verify(). Every adapter
// carries a version stamp — part of the memo key (src/serve/memo.hpp), so
// changing an algorithm's output for a given input invalidates its cached
// results by construction.
//
// Fail-on-typo stance throughout, matching Flags: unknown algorithm names,
// unknown graph families, and unknown param keys all throw CheckFailure
// with the valid set in the message; the server turns that into an error
// response instead of a silent default.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

// Job parameters, string-to-string (the line protocol's native currency).
// Typed reads happen in the adapters via the kv_* helpers below.
using KV = std::map<std::string, std::string>;

// A reproducible graph instance description. Canonicalized into the memo
// key, so two jobs naming the same spec share cached results.
struct GraphSpec {
  std::string family;      // see graph_family_roster()
  std::uint64_t n = 0;     // node count (total, both sides for bipartite)
  int d = 0;               // degree / branching parameter; 0 = family default
  std::uint64_t seed = 0;  // generation seed for the random families


  // Deterministic "family=...;n=...;d=...;gseed=..." string for memo keys
  // and error messages.
  std::string canonical() const;
};

// A built instance: the topology plus the per-edge labels (a proper edge
// coloring) when the family provides one — the Δ-sinkless input contract.
struct BuiltGraph {
  Graph graph;
  std::vector<int> edge_labels;  // empty when the family has no coloring
  int num_labels = 0;
};

// Materializes `spec` deterministically (same spec → bit-identical graph).
// Throws CheckFailure on unknown families or invalid parameters.
BuiltGraph build_graph(const GraphSpec& spec);
const std::vector<std::string>& graph_family_roster();

// Outcome of one algorithm execution, transport- and store-agnostic.
struct AlgoRun {
  int rounds = 0;
  bool completed = false;  // ran to its own halt (not capped or budgeted)
  bool verified = false;   // completed and accepted by Algorithm::verify
  std::uint64_t engine_bytes = 0;
  // FNV-1a over the canonical output bytes (MIS membership, colors,
  // matching, orientation), set by Algorithm::run. Two runs produced the
  // same solution iff the digests match — the determinism witness the memo
  // differential tests compare without shipping whole solutions through
  // the protocol.
  std::uint64_t output_digest = 0;
  std::vector<std::pair<std::string, double>> metrics;  // adapter extras

  // The typed output; an adapter fills the one its output kind uses.
  std::vector<char> flags;           // MIS membership per node, or the
                                     // matching's edges per edge
  std::vector<int> colors;           // a color per node
  std::vector<std::int8_t> orient;   // ±1 per edge (an Orientation)
};

// What the registry table fixes about an algorithm besides how to run it.
struct AlgorithmTraits {
  std::string name;
  // Monotone stamp keyed into the serve memo; bump whenever the algorithm's
  // output for a fixed (graph, params, seed) can change.
  int version = 1;
  // RandLOCAL (true): input gets no IDs, seed drives private randomness.
  // DetLOCAL (false): prepare_input installs sequential IDs.
  bool randomized = true;
  // True for algorithms that consume input.edge_labels (sinkless); the
  // graph family must provide a coloring.
  bool needs_edge_labels = false;
};

// One registered algorithm: a stateless adapter from (input, params) to the
// packed roster entry it wraps. Budgets ride in EngineOptions::budget.
class Algorithm {
 public:
  explicit Algorithm(AlgorithmTraits traits) : traits_(std::move(traits)) {}
  virtual ~Algorithm() = default;

  const std::string& name() const { return traits_.name; }
  int version() const { return traits_.version; }
  bool randomized() const { return traits_.randomized; }
  bool needs_edge_labels() const { return traits_.needs_edge_labels; }

  // The engine run alone: fills everything but `verified` and
  // `output_digest`. `input` is fully prepared by prepare_input(); `params`
  // beyond the adapter's declared keys throw CheckFailure.
  virtual AlgoRun execute(const LocalInput& input, int max_rounds,
                          const EngineOptions& options,
                          const KV& params) const = 0;
  // The entry's LCL verifier on `run`'s typed output; completion is the
  // caller's concern.
  virtual bool verify(const LocalInput& input, const KV& params,
                      const AlgoRun& run) const = 0;

  // execute(), then the output digest and verified = completed &&
  // verify().
  AlgoRun run(const LocalInput& input, int max_rounds,
              const EngineOptions& options, const KV& params) const;

 private:
  // FNV-1a over the bytes of the typed output; spin, which has none,
  // digests its node states instead.
  virtual std::uint64_t digest(const AlgoRun& run) const;

  AlgorithmTraits traits_;
};

// Registry lookup; throws CheckFailure for unknown names, listing the
// roster. Adapters are stateless, so the returned object is shareable.
std::unique_ptr<Algorithm> make_algorithm(const std::string& name);
const std::vector<std::string>& algorithm_roster();

// Builds the LocalInput an Algorithm expects on `built`: seed always,
// sequential IDs for DetLOCAL adapters, edge labels when required (throws
// if the family provided none). `built` must outlive the returned input.
LocalInput prepare_input(const Algorithm& algo, const BuiltGraph& built,
                         std::uint64_t seed);

// Typed KV reads with the Flags parsing/rejection semantics. kv_int throws
// unless a present value lies in [lo, hi]; an absent key returns `def`.
std::int64_t kv_int(const KV& params, const std::string& key,
                    std::int64_t def, std::int64_t lo, std::int64_t hi);
bool kv_bool(const KV& params, const std::string& key, bool def);
double kv_double(const KV& params, const std::string& key, double def);

}  // namespace ckp
