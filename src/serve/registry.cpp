#include "serve/registry.hpp"
#include "serve/spin_program.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "algo/delta_coloring_local.hpp"
#include "algo/greedy_color.hpp"
#include "algo/matching_local.hpp"
#include "algo/mis_ghaffari.hpp"
#include "algo/mis_luby.hpp"
#include "algo/plus_one_coloring.hpp"
#include "algo/sinkless_local.hpp"
#include "graph/generators.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_matching.hpp"
#include "lcl/verify_mis.hpp"
#include "lcl/verify_orientation.hpp"
#include "local/ids.hpp"
#include "store/binary_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ckp {

namespace {

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

// Rejects params the adapter did not declare — same fail-on-typo stance as
// Flags::check_unknown, so a misspelled "pallete" errors instead of running
// with the default.
void check_params(const std::string& algo, const KV& params,
                  const std::vector<std::string>& allowed) {
  for (const auto& [key, value] : params) {
    (void)value;
    bool known = false;
    for (const auto& a : allowed) {
      if (a == key) {
        known = true;
        break;
      }
    }
    CKP_CHECK_MSG(known, "algorithm " << algo << " has no param \"" << key
                                      << "\"; valid: "
                                      << (allowed.empty() ? "(none)"
                                                          : joined(allowed)));
  }
}

// FNV-1a over a vector's element bytes — the output-digest witness. Only
// instantiated for trivially copyable element types.
template <typename T>
std::uint64_t digest_vec(const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                  v.size() * sizeof(T)));
}

// Copies the fields every engine result struct shares.
template <typename Result>
AlgoRun take(const Result& r) {
  AlgoRun out;
  out.rounds = r.rounds;
  out.completed = r.completed;
  out.engine_bytes = r.engine_bytes;
  return out;
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

// ---------------------------------------------------------------------------
// Adapters. Each is a stateless wrapper over one packed roster entry; its
// name, version and LOCAL model come from the table in algorithm_entries().
// MisOutput and DeltaColoringOutput own the verifier their entries share.

class MisOutput : public Algorithm {
 public:
  using Algorithm::Algorithm;
  bool verify(const LocalInput& input, const KV&,
              const AlgoRun& run) const final {
    return verify_mis(*input.graph, run.flags).ok;
  }
};

class LubyAlgo final : public MisOutput {
 public:
  using MisOutput::MisOutput;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {});
    MisResult r = mis_luby(input, max_rounds, options);
    AlgoRun out = take(r);
    out.flags = std::move(r.in_set);
    return out;
  }
};

class GhaffariAlgo final : public MisOutput {
 public:
  using MisOutput::MisOutput;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {"phase1_iterations"});
    GhaffariMisParams p;
    p.phase1_iterations =
        static_cast<int>(kv_int(params, "phase1_iterations", 0, 0, kIntMax));
    GhaffariLocalResult r =
        mis_ghaffari_local(input, max_rounds, options, p);
    AlgoRun out = take(r);
    out.flags = std::move(r.in_set);
    out.metrics.emplace_back("phase1_rounds",
                             static_cast<double>(r.phase1_rounds));
    out.metrics.emplace_back("residue_nodes",
                             static_cast<double>(r.residue_nodes));
    out.metrics.emplace_back(
        "largest_residue_component",
        static_cast<double>(r.largest_residue_component));
    return out;
  }
};

class MatchingAlgo final : public Algorithm {
 public:
  using Algorithm::Algorithm;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {});
    MatchingLocalResult r =
        randomized()
            ? matching_randomized_local(input, max_rounds, options)
            : matching_deterministic_local(input, max_rounds, options);
    AlgoRun out = take(r);
    out.flags = std::move(r.in_matching);
    return out;
  }
  bool verify(const LocalInput& input, const KV&,
              const AlgoRun& run) const override {
    return verify_maximal_matching(*input.graph, run.flags).ok;
  }
};

// plus_one (RandLOCAL) and greedy (DetLOCAL): (Δ+1)-coloring, or a
// `palette` param of at least Δ+1.
class PlusOneAlgo final : public Algorithm {
 public:
  using Algorithm::Algorithm;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {"palette"});
    const int palette = static_cast<int>(kv_int(params, "palette", 0, 0,
                                                kIntMax));
    AlgoRun out;
    if (randomized()) {
      PlusOneLocalResult r = plus_one_local(input, palette, max_rounds,
                                            options);
      out = take(r);
      out.colors = std::move(r.colors);
    } else {
      GreedyColorLocalResult r = greedy_color_local(input, palette,
                                                    max_rounds, options);
      out = take(r);
      out.colors = std::move(r.colors);
    }
    return out;
  }
  bool verify(const LocalInput& input, const KV& params,
              const AlgoRun& run) const override {
    const auto k = static_cast<int>(kv_int(params, "palette", 0, 0, kIntMax));
    return verify_coloring(*input.graph, run.colors,
                           k > 0 ? k : input.graph->max_degree() + 1)
        .ok;
  }
};

class SinklessAlgo final : public Algorithm {
 public:
  using Algorithm::Algorithm;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {});
    SinklessLocalResult r = sinkless_local(input, max_rounds, options);
    AlgoRun out = take(r);
    out.orient = std::move(r.orient);
    out.metrics.emplace_back("unsatisfied",
                             static_cast<double>(r.unsatisfied));
    return out;
  }
  bool verify(const LocalInput& input, const KV&,
              const AlgoRun& run) const override {
    return verify_sinkless_orientation(*input.graph, run.orient).ok;
  }
};

// The paper's Δ-colorings (Theorems 10 and 11): Δ colors.
class DeltaColoringOutput : public Algorithm {
 public:
  using Algorithm::Algorithm;
  bool verify(const LocalInput& input, const KV&,
              const AlgoRun& run) const final {
    return verify_coloring(*input.graph, run.colors, input.effective_delta())
        .ok;
  }
};

class Thm10Algo final : public DeltaColoringOutput {
 public:
  using DeltaColoringOutput::DeltaColoringOutput;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params,
                 {"alpha", "growth_divisor", "cap_exponent",
                  "max_iterations"});
    Thm10Params p;
    p.alpha = kv_double(params, "alpha", p.alpha);
    p.growth_divisor = kv_double(params, "growth_divisor", p.growth_divisor);
    p.cap_exponent = kv_double(params, "cap_exponent", p.cap_exponent);
    p.max_iterations = static_cast<int>(
        kv_int(params, "max_iterations", p.max_iterations, 1, kIntMax));
    Thm10LocalResult r =
        delta_coloring_thm10_local(input, max_rounds, options, p);
    AlgoRun out = take(r);
    out.colors = std::move(r.colors);
    out.metrics.emplace_back("phase1_iterations",
                             static_cast<double>(r.phase1_iterations));
    out.metrics.emplace_back("bad_vertices",
                             static_cast<double>(r.bad_vertices));
    out.metrics.emplace_back("largest_bad_component",
                             static_cast<double>(r.largest_bad_component));
    return out;
  }
};

class Thm11Algo final : public DeltaColoringOutput {
 public:
  using DeltaColoringOutput::DeltaColoringOutput;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {});
    Thm11LocalResult r =
        delta_coloring_thm11_local(input, max_rounds, options);
    AlgoRun out = take(r);
    out.colors = std::move(r.colors);
    out.metrics.emplace_back("phase2_set_size",
                             static_cast<double>(r.phase2_set_size));
    out.metrics.emplace_back(
        "phase2_largest_component",
        static_cast<double>(r.phase2_largest_component));
    out.metrics.emplace_back("phase3_set_size",
                             static_cast<double>(r.phase3_set_size));
    return out;
  }
};

// A serve fixture that never halts: it exercises budgets and cancellation.
class SpinAlgo final : public Algorithm {
 public:
  using Algorithm::Algorithm;
  AlgoRun execute(const LocalInput& input, int max_rounds,
                  const EngineOptions& options,
                  const KV& params) const override {
    check_params(name(), params, {});
    detail::SpinNode algo;
    const EngineResult<detail::SpinNode> r =
        run_local(input, algo, max_rounds, nullptr, options);
    AlgoRun out;
    out.rounds = r.rounds;
    out.completed = false;  // by construction: spin never halts
    out.engine_bytes = r.engine_bytes;
    std::uint64_t acc = 0xcbf29ce484222325ULL;
    for (const detail::SpinNode::State& s : r.states) {
      acc = mix_seed(acc, s.word);
    }
    out.output_digest = acc;
    return out;
  }
  bool verify(const LocalInput&, const KV&, const AlgoRun&) const override {
    return false;
  }

 private:
  std::uint64_t digest(const AlgoRun& run) const override {
    return run.output_digest;  // set by execute()
  }
};

// The registry table: each algorithm's traits and its adapter, in roster
// order.
struct Entry {
  AlgorithmTraits traits;
  std::unique_ptr<Algorithm> (*make)(const AlgorithmTraits&);
};

template <typename Adapter>
std::unique_ptr<Algorithm> make(const AlgorithmTraits& traits) {
  return std::make_unique<Adapter>(traits);
}

const std::vector<Entry>& algorithm_entries() {
  constexpr bool kRand = true;
  constexpr bool kDet = false;
  constexpr bool kLabels = true;
  // Version 2 on RandLOCAL entries: their draws became keyed.
  static const std::vector<Entry> kEntries = {
      {{"luby", 2, kRand, false}, make<LubyAlgo>},
      {{"ghaffari", 2, kRand, false}, make<GhaffariAlgo>},
      {{"matching_rand", 1, kRand, false}, make<MatchingAlgo>},
      {{"matching_det", 1, kDet, false}, make<MatchingAlgo>},
      {{"plus_one", 2, kRand, false}, make<PlusOneAlgo>},
      {{"greedy", 1, kDet, false}, make<PlusOneAlgo>},
      {{"sinkless", 2, kRand, kLabels}, make<SinklessAlgo>},
      {{"spin", 1, kRand, false}, make<SpinAlgo>},
      {{"thm10", 2, kRand, false}, make<Thm10Algo>},
      {{"thm11", 2, kRand, false}, make<Thm11Algo>},
  };
  return kEntries;
}

}  // namespace

AlgoRun Algorithm::run(const LocalInput& input, int max_rounds,
                       const EngineOptions& options, const KV& params) const {
  AlgoRun out = execute(input, max_rounds, options, params);
  out.output_digest = digest(out);
  out.verified = out.completed && verify(input, params, out);
  return out;
}

std::uint64_t Algorithm::digest(const AlgoRun& run) const {
  // An adapter fills exactly one typed output.
  if (!run.colors.empty()) return digest_vec(run.colors);
  if (!run.orient.empty()) return digest_vec(run.orient);
  return digest_vec(run.flags);
}

std::string GraphSpec::canonical() const {
  std::ostringstream out;
  out << "family=" << family << ";n=" << n << ";d=" << d << ";gseed=" << seed;
  return out.str();
}

const std::vector<std::string>& graph_family_roster() {
  static const std::vector<std::string> kFamilies = {
      "bipartite_regular", "random_regular", "cycle", "path",
      "complete_tree"};
  return kFamilies;
}

BuiltGraph build_graph(const GraphSpec& spec) {
  CKP_CHECK_MSG(spec.n > 0, "graph spec needs n > 0");
  CKP_CHECK_MSG(
      spec.n <= static_cast<std::uint64_t>(
                    std::numeric_limits<NodeId>::max()),
      "graph spec n=" << spec.n << " exceeds the node-id range");
  const auto n = static_cast<NodeId>(spec.n);
  BuiltGraph out;
  if (spec.family == "bipartite_regular") {
    CKP_CHECK_MSG(spec.n % 2 == 0,
                  "bipartite_regular needs even n (n = both sides), got "
                      << spec.n);
    const int d = spec.d > 0 ? spec.d : 3;
    Rng rng(mix_seed(spec.seed));
    EdgeColoredGraph colored =
        make_random_bipartite_regular(n / 2, d, rng);
    out.graph = std::move(colored.graph);
    out.edge_labels = std::move(colored.edge_color);
    out.num_labels = colored.num_colors;
  } else if (spec.family == "random_regular") {
    const int d = spec.d > 0 ? spec.d : 3;
    Rng rng(mix_seed(spec.seed));
    out.graph = make_random_regular(n, d, rng);
  } else if (spec.family == "cycle") {
    CKP_CHECK_MSG(spec.d == 0, "cycle has no degree parameter, got d="
                                   << spec.d);
    out.graph = make_cycle(n);
  } else if (spec.family == "path") {
    CKP_CHECK_MSG(spec.d == 0, "path has no degree parameter, got d="
                                   << spec.d);
    out.graph = make_path(n);
  } else if (spec.family == "complete_tree") {
    const int delta = spec.d > 0 ? spec.d : 3;
    out.graph = make_complete_tree(n, delta);
  } else {
    CKP_CHECK_MSG(false, "unknown graph family \"" << spec.family
                                                   << "\"; valid: "
                                                   << joined(
                                                          graph_family_roster()));
  }
  return out;
}

const std::vector<std::string>& algorithm_roster() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Entry& e : algorithm_entries()) names.push_back(e.traits.name);
    return names;
  }();
  return kNames;
}

std::unique_ptr<Algorithm> make_algorithm(const std::string& name) {
  for (const Entry& e : algorithm_entries()) {
    if (e.traits.name == name) return e.make(e.traits);
  }
  CKP_CHECK_MSG(false, "unknown algorithm \"" << name << "\"; valid: "
                                              << joined(algorithm_roster()));
  return nullptr;
}

LocalInput prepare_input(const Algorithm& algo, const BuiltGraph& built,
                         std::uint64_t seed) {
  LocalInput input;
  input.graph = &built.graph;
  input.seed = seed;
  if (!algo.randomized()) {
    input.ids = sequential_ids(built.graph.num_nodes());
  }
  if (algo.needs_edge_labels()) {
    CKP_CHECK_MSG(!built.edge_labels.empty(),
                  "algorithm " << algo.name()
                               << " needs an edge coloring, but the graph "
                                  "family provides none (use "
                                  "bipartite_regular)");
    input.edge_labels = built.edge_labels;
  }
  return input;
}

std::int64_t kv_int(const KV& params, const std::string& key,
                    std::int64_t def, std::int64_t lo, std::int64_t hi) {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  const std::string& v = it->second;
  CKP_CHECK_MSG(!v.empty(), "param " << key << " has an empty value");
  errno = 0;
  char* end = nullptr;
  const std::int64_t out = std::strtoll(v.c_str(), &end, 10);
  CKP_CHECK_MSG(end != v.c_str() && end != nullptr && *end == '\0',
                "param " << key << " is not an integer: " << v);
  CKP_CHECK_MSG(errno != ERANGE,
                "param " << key << " is out of range for int64: " << v);
  CKP_CHECK_MSG(out >= lo && out <= hi, "param " << key << " = " << out
                                                  << " is outside [" << lo
                                                  << ", " << hi << "]");
  return out;
}

double kv_double(const KV& params, const std::string& key, double def) {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  const std::string& v = it->second;
  CKP_CHECK_MSG(!v.empty(), "param " << key << " has an empty value");
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  CKP_CHECK_MSG(end != v.c_str() && end != nullptr && *end == '\0',
                "param " << key << " is not a number: " << v);
  CKP_CHECK_MSG(errno != ERANGE,
                "param " << key << " is out of range for double: " << v);
  return out;
}

bool kv_bool(const KV& params, const std::string& key, bool def) {
  const auto it = params.find(key);
  if (it == params.end()) return def;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  CKP_CHECK_MSG(false,
                "param " << key << " is not a boolean: " << it->second);
  return def;
}

}  // namespace ckp
