// Experiment E18 — engine scaling curves on 10^5–10^8-node Δ-regular
// bipartite graphs: streaming generation throughput, engine throughput, and
// engine-side bytes/node for every engine algorithm in the serve registry.
//
// One block per n = 2^e:
//
//   generate_streamed       in-place union-of-matchings CSR generation
//                           (make_random_bipartite_regular_streamed),
//                           nodes/sec
//   generate_complete_tree  the Δ=16 complete tree the Δ-coloring entries
//                           run on (make_complete_tree), nodes/sec
//   <registry name>         one record per roster entry (luby, ghaffari,
//                           matching_rand, matching_det, plus_one, greedy,
//                           sinkless, thm10, thm11): node·rounds/sec and
//                           engine bytes/node
//
// The engine rows are one loop over the registry (serve/registry.hpp): the
// adapter's execute() is timed, then its verify() checks the output. What
// an entry needs follows from the adapter: RandLOCAL entries run once per
// seed on the work-stealing schedule, DetLOCAL ones once per n on the
// static schedule with sequential ids, and entries that need edge labels
// get the generator's coloring. The two facts the adapters do not say —
// which entries need a forest and which carry port-aligned labels — are
// bench-local sets below.
//
// --algo=a,b,... restricts the sweep to a subset of the roster (default:
// every entry but spin, the serve fixture that never halts).
//
// Budget gates (--assert-budget): every entry's engine bytes/node must stay
// within --budget-bytes (default 48), plus 4·Δ when it carries port-aligned
// edge labels. Random draws are counter-based and cost no bytes, so
// RandLOCAL and DetLOCAL share the budget. scripts/check_scale.sh runs this
// gate in check_all.
//
// Every record carries peak_rss_bytes and pool_utilization (the pooled
// dispatch window of that run) via add_resource_run_metrics.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "obs/reporter.hpp"
#include "serve/registry.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/math.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace ckp;
  Flags flags(argc, argv);
  const int min_exp = static_cast<int>(flags.get_int("min-exp", 16));
  const int max_exp = static_cast<int>(flags.get_int("max-exp", 20));
  const int exp_step = static_cast<int>(flags.get_int("exp-step", 2));
  const int d = static_cast<int>(flags.get_int("d", 3));
  const int seeds = static_cast<int>(flags.get_int("seeds", 1));
  const bool assert_budget = flags.get_bool("assert-budget", false);
  const auto budget_bytes =
      static_cast<double>(flags.get_int("budget-bytes", 48));
  std::vector<std::string> roster = algorithm_roster();
  roster.erase(std::find(roster.begin(), roster.end(), "spin"));
  const std::vector<std::string> selected = flags.get_list("algo", roster);
  BenchReporter reporter(flags, "E18_scale");
  const int threads = reporter.threads();
  const NodeId shard_nodes = flags.get_shard_nodes(threads);
  flags.check_unknown();
  CKP_CHECK_MSG(d >= 2 && d + 1 <= 64,
                "--d must be in [2, 63] (sinkless needs degree >= 2, greedy "
                "caps the palette at 64)");
  CKP_CHECK(min_exp >= 4 && min_exp <= max_exp && exp_step >= 1);

  // The Δ-colorings need a forest (the rake phases peel trees; the
  // bipartite workhorse has cycles), so they ride on their own complete
  // tree of the same n at Δ=16 — the smallest degree Theorem 10's reserved
  // palette admits.
  const std::set<std::string> kOnTree = {"thm10", "thm11"};
  const int tree_delta = 16;
  // Port-aligned edge labels (+4·Δ B/node): sinkless reads the generator's
  // coloring, matching_rand synthesizes its own.
  const std::set<std::string> kPortLabels = {"matching_rand", "sinkless"};

  std::vector<std::unique_ptr<Algorithm>> algos;  // roster order
  bool any_on_tree = false;
  for (const std::string& name : roster) {
    if (std::find(selected.begin(), selected.end(), name) == selected.end()) {
      continue;
    }
    algos.push_back(make_algorithm(name));
    any_on_tree = any_on_tree || kOnTree.count(name) > 0;
  }

  std::cout << "E18: engine scale-up — streamed generation + packed rounds\n"
            << "Δ=" << d << "-regular bipartite, threads=" << threads
            << ", shard_nodes=" << shard_nodes << "\n\n";
  Table t({"n", "run", "Δ", "seed", "rounds", "wall s", "M/s", "B/n",
           "budget", "verified", "util"});

  for (int e = min_exp; e <= max_exp; e += exp_step) {
    const NodeId n = static_cast<NodeId>(1) << e;
    const NodeId side = n / 2;
    Rng gen_rng(mix_seed(0xE12, static_cast<std::uint64_t>(d),
                         static_cast<std::uint64_t>(n)));

    // Generation rows: nodes/sec under "M/s".
    const auto generation_record = [&](const char* name, const char* family,
                                       int delta, double seconds,
                                       bool verified) {
      RunRecord rec = reporter.make_record();
      rec.algorithm = name;
      rec.graph_family = family;
      rec.n = static_cast<std::uint64_t>(n);
      rec.delta = delta;
      rec.wall_seconds = seconds;
      rec.verified = verified;
      const double nodes_per_sec = static_cast<double>(n) / seconds;
      rec.metric("nodes_per_sec", nodes_per_sec);
      t.add_row({Table::cell(static_cast<std::int64_t>(n)), name,
                 Table::cell(delta), "-", "-", Table::cell(seconds, 4),
                 Table::cell(nodes_per_sec / 1e6, 2), "-", "-",
                 verified ? "yes" : "no", "-"});
      return rec;
    };

    ThreadPoolStats before = shared_pool_stats();
    Timer gen_timer;
    EdgeColoredGraph ecg = make_random_bipartite_regular_streamed(
        side, d, gen_rng, shard_nodes, threads);
    const double gen_seconds = gen_timer.seconds();
    // from_regular_csr fully validates the CSR; re-checking the coloring is
    // O(n·d) with a per-node scan, so cap it at small n.
    const bool gen_verified =
        n <= (NodeId{1} << 22) ? is_proper_edge_coloring(
                                     ecg.graph, ecg.edge_color, ecg.num_colors)
                               : true;
    CKP_CHECK(gen_verified);
    {
      RunRecord rec =
          generation_record("generate_streamed", "bipartite_regular_streamed",
                            d, gen_seconds, gen_verified);
      rec.metric("shard_nodes", static_cast<double>(shard_nodes));
      add_resource_run_metrics(rec, before);
      reporter.add(std::move(rec));
    }
    const BuiltGraph bipartite{std::move(ecg.graph), std::move(ecg.edge_color),
                               ecg.num_colors};

    BuiltGraph tree;
    if (any_on_tree) {
      before = shared_pool_stats();
      Timer tree_timer;
      tree.graph = make_complete_tree(n, tree_delta);
      const double tree_seconds = tree_timer.seconds();
      const bool tree_verified = tree.graph.num_edges() == n - 1 &&
                                 tree.graph.max_degree() == tree_delta;
      CKP_CHECK(tree_verified);
      RunRecord rec =
          generation_record("generate_complete_tree", "complete_tree",
                            tree_delta, tree_seconds, tree_verified);
      add_resource_run_metrics(rec, before);
      reporter.add(std::move(rec));
    }

    for (int s = 0; s < seeds; ++s) {
      bool warm = false;
      for (const auto& algo : algos) {
        // DetLOCAL entries ignore the seed: one run per n.
        if (!algo->randomized() && s > 0) continue;
        const std::string& name = algo->name();
        const bool on_tree = kOnTree.count(name) > 0;
        const BuiltGraph& built = on_tree ? tree : bipartite;
        // The randomized matching's proposal field caps m at 2^26 edges.
        if (name == "matching_rand" &&
            static_cast<std::uint64_t>(built.graph.num_edges()) >=
                (1ULL << 26)) {
          continue;
        }
        const std::uint64_t seed =
            algo->randomized() ? static_cast<std::uint64_t>(s) + 1 : 0;
        const LocalInput in = prepare_input(*algo, built, seed);
        EngineOptions opts;
        opts.threads = threads;
        // DetLOCAL active sets shrink uniformly, so stealing has nothing to
        // gain there and the static rows double as scheduler coverage.
        if (algo->randomized()) opts.schedule = EngineSchedule::kWorkStealing;
        const int max_rounds = 1 << 20;

        // Untimed warmup before the first timed run: the first engine run
        // on a fresh heap pays the page faults for its state arrays;
        // without it the timed run measures the allocator, not the rounds.
        if (!warm) {
          (void)algo->execute(in, max_rounds, opts, {});
          warm = true;
        }
        before = shared_pool_stats();
        Timer timer;
        AlgoRun run = algo->execute(in, max_rounds, opts, {});
        const double seconds = timer.seconds();
        run.verified = run.completed && algo->verify(in, {}, run);
        // Sinkless fails its verifier at Δ=3 (ROADMAP item 1), so its row
        // records the verdict instead of gating on it.
        if (name != "sinkless") {
          CKP_CHECK_MSG(run.verified, name << " did not complete and verify"
                                           << " at n=" << n);
        }

        const double budget =
            budget_bytes + (kPortLabels.count(name) > 0 ? 4.0 * d : 0.0);
        const double bytes_per_node = static_cast<double>(run.engine_bytes) /
                                      static_cast<double>(n);
        if (assert_budget) {
          CKP_CHECK_MSG(bytes_per_node <= budget,
                        name << " engine bytes/node " << bytes_per_node
                             << " exceeds the budget " << budget
                             << " at n=" << n);
        }
        const double node_rounds_per_sec =
            static_cast<double>(n) * run.rounds / seconds;

        RunRecord rec = reporter.make_record();
        rec.algorithm = name;
        rec.graph_family =
            on_tree ? "complete_tree" : "bipartite_regular_streamed";
        rec.n = static_cast<std::uint64_t>(n);
        rec.delta = built.graph.max_degree();
        rec.seed = seed;
        rec.rounds = run.rounds;
        rec.wall_seconds = seconds;
        rec.verified = run.verified;
        rec.metric("node_rounds_per_sec", node_rounds_per_sec);
        rec.metric("engine_bytes_per_node", bytes_per_node);
        rec.metric("budget_bytes_per_node", budget);
        add_resource_run_metrics(rec, before);
        double util = 0.0;
        for (const auto& [metric, value] : rec.metrics()) {
          if (metric == "pool_utilization") util = value;
        }
        for (const auto& [metric, value] : run.metrics) {
          rec.metric(metric, value);
        }
        reporter.add(std::move(rec));
        t.add_row({Table::cell(static_cast<std::int64_t>(n)), name,
                   Table::cell(built.graph.max_degree()),
                   Table::cell(seed), Table::cell(run.rounds),
                   Table::cell(seconds, 4),
                   Table::cell(node_rounds_per_sec / 1e6, 1),
                   Table::cell(bytes_per_node, 1), Table::cell(budget, 0),
                   run.verified ? "yes" : "no", Table::cell(util, 2)});
      }
    }
  }
  reporter.print(t, std::cout);
  std::cout << "\nM/s: Mnodes/s for generation rows, Mnode·rounds/s for "
               "engine rows.\nExpected shape: generation and engine "
               "throughput flat in n (streaming + packed state);\nevery "
               "B/n under its budget (see EXPERIMENTS.md E18).\n";
  return 0;
}
