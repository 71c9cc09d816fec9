// Experiment E18 — engine scaling curves on 10^5–10^8-node Δ-regular
// bipartite graphs: streaming generation throughput, engine throughput, and
// engine-side bytes/node for the full engine algorithm roster.
//
// One block per n = 2^e:
//
//   generate_streamed   in-place union-of-matchings CSR generation
//                       (make_random_bipartite_regular_streamed), nodes/sec
//   generate_complete_tree  the Δ=16 complete tree the Δ-coloring ports
//                       run on (make_complete_tree), nodes/sec
//   mis_luby_packed     RandLOCAL Luby, work-stealing schedule;
//                       node·rounds/sec and engine bytes/node
//   mis_ghaffari_local  RandLOCAL desire-level MIS with shattering residue
//   matching_*_local    the handshake matchings: randomized (per-edge
//                       hash draws) and deterministic (greedy by edge
//                       priority, sequential ids)
//   plus_one_local      RandLOCAL (Δ+1) trial coloring
//   greedy_color_local  DetLOCAL packed flagship, static schedule
//   sinkless_local      RandLOCAL sinkless orientation taking the
//                       generator's matching decomposition as its coloring
//   delta_coloring_thm10/11_local  the paper's Δ-coloring algorithms on a
//                       complete-tree instance of the same n (the rake
//                       phases need a forest), Δ=16
//
// --algo=a,b,... restricts the sweep to a subset of the roster (default:
// everything), so single-algorithm investigations don't pay for the rest.
//
// Budget gates (--assert-budget): every packed algorithm's engine bytes/node
// must stay within --budget-bytes (default 48), plus 4·Δ when it carries
// port-aligned edge labels. Random draws are counter-based and cost no
// bytes, so RandLOCAL and DetLOCAL share the budget. scripts/check_scale.sh
// runs this gate in check_all.
//
// Every record carries peak_rss_bytes and pool_utilization (the pooled
// dispatch window of that run) via add_resource_run_metrics.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/delta_coloring_local.hpp"
#include "algo/greedy_color.hpp"
#include "algo/matching_local.hpp"
#include "algo/mis_ghaffari.hpp"
#include "algo/mis_luby.hpp"
#include "algo/plus_one_coloring.hpp"
#include "algo/sinkless_local.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "lcl/verify_matching.hpp"
#include "lcl/verify_mis.hpp"
#include "local/ids.hpp"
#include "obs/reporter.hpp"
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
  const std::vector<std::string> roster = {
      "luby",     "ghaffari", "matching_rand", "matching_det",
      "plus_one", "greedy",   "sinkless",      "thm10",
      "thm11"};
  const std::vector<std::string> algos = flags.get_list("algo", roster);
  BenchReporter reporter(flags, "E18_scale");
  const int threads = reporter.threads();
  const NodeId shard_nodes = flags.get_shard_nodes(threads);
  flags.check_unknown();
  CKP_CHECK_MSG(d >= 2 && d + 1 <= 64,
                "--d must be in [2, 63] (sinkless needs degree >= 2, greedy "
                "caps the palette at 64)");
  CKP_CHECK(min_exp >= 4 && min_exp <= max_exp && exp_step >= 1);
  const auto enabled = [&](const char* a) {
    return std::find(algos.begin(), algos.end(), a) != algos.end();
  };
  // Budget model: one budget for every algorithm, +4·Δ B/node for
  // port-aligned edge labels.
  const double label_budget_extra = 4.0 * d;
  const auto gate = [&](const char* name, std::uint64_t engine_bytes, NodeId n,
                        double budget) {
    const double bpn =
        static_cast<double>(engine_bytes) / static_cast<double>(n);
    if (assert_budget) {
      CKP_CHECK_MSG(bpn <= budget, name << " engine bytes/node " << bpn
                                        << " exceeds the budget " << budget
                                        << " at n=" << n);
    }
    return bpn;
  };

  std::cout << "E18: engine scale-up — streamed generation + packed rounds\n"
            << "Δ=" << d << "-regular bipartite, threads=" << threads
            << ", shard_nodes=" << shard_nodes << "\n\n";
  Table t({"n", "gen Mn/s", "tree Mn/s", "luby Mn·r/s", "luby B/n",
           "ghaf B/n", "mrand B/n", "mdet B/n", "p1 B/n", "greedy B/n",
           "t10 B/n", "t11 B/n", "util"});

  for (int e = min_exp; e <= max_exp; e += exp_step) {
    const NodeId n = static_cast<NodeId>(1) << e;
    const NodeId side = n / 2;
    Rng gen_rng(mix_seed(0xE12, static_cast<std::uint64_t>(d),
                         static_cast<std::uint64_t>(n)));

    ThreadPoolStats before = shared_pool_stats();
    Timer gen_timer;
    const EdgeColoredGraph ecg = make_random_bipartite_regular_streamed(
        side, d, gen_rng, shard_nodes, threads);
    const double gen_seconds = gen_timer.seconds();
    const Graph& g = ecg.graph;
    // from_regular_csr fully validates the CSR; re-checking the coloring is
    // O(n·d) with a per-node scan, so cap it at small n.
    const bool gen_verified =
        n <= (NodeId{1} << 22)
            ? is_proper_edge_coloring(g, ecg.edge_color, ecg.num_colors)
            : true;
    CKP_CHECK(gen_verified);
    {
      RunRecord rec = reporter.make_record();
      rec.algorithm = "generate_streamed";
      rec.graph_family = "bipartite_regular_streamed";
      rec.n = static_cast<std::uint64_t>(n);
      rec.delta = d;
      rec.wall_seconds = gen_seconds;
      rec.verified = gen_verified;
      rec.metric("nodes_per_sec", static_cast<double>(n) / gen_seconds);
      rec.metric("shard_nodes", static_cast<double>(shard_nodes));
      add_resource_run_metrics(rec, before);
      reporter.add(std::move(rec));
    }

    // Common record plumbing for the per-algorithm engine runs.
    const auto engine_record = [&](const char* name, std::uint64_t seed,
                                   int rounds, double seconds,
                                   double bytes_per_node,
                                   const ThreadPoolStats& window) {
      RunRecord rec = reporter.make_record();
      rec.algorithm = name;
      rec.graph_family = "bipartite_regular_streamed";
      rec.n = static_cast<std::uint64_t>(n);
      rec.delta = d;
      rec.seed = seed;
      rec.rounds = rounds;
      rec.wall_seconds = seconds;
      rec.verified = true;
      rec.metric("node_rounds_per_sec",
                 static_cast<double>(n) * rounds / seconds);
      rec.metric("engine_bytes_per_node", bytes_per_node);
      add_resource_run_metrics(rec, window);
      return rec;
    };

    double luby_node_rounds_per_sec = 0.0;
    double luby_bytes_per_node = 0.0;
    double ghaffari_bytes_per_node = 0.0;
    double mrand_bytes_per_node = 0.0;
    double mdet_bytes_per_node = 0.0;
    double plus_one_bytes_per_node = 0.0;
    double greedy_bytes_per_node = 0.0;
    double thm10_bytes_per_node = 0.0;
    double thm11_bytes_per_node = 0.0;
    double util = 0.0;

    EngineOptions packed_opts;
    packed_opts.threads = threads;
    packed_opts.schedule = EngineSchedule::kWorkStealing;

    // The Δ-coloring roster needs a forest (the rake phases peel trees;
    // the bipartite workhorse has cycles), so it rides on its own
    // complete-tree instance of the same n at Δ=16 — the smallest degree
    // Theorem 10's reserved palette admits.
    const int tree_delta = 16;
    Graph tree;
    double tree_nodes_per_sec = 0.0;
    if (enabled("thm10") || enabled("thm11")) {
      before = shared_pool_stats();
      Timer tree_timer;
      tree = make_complete_tree(n, tree_delta);
      const double tree_seconds = tree_timer.seconds();
      tree_nodes_per_sec = static_cast<double>(n) / tree_seconds;
      RunRecord rec = reporter.make_record();
      rec.algorithm = "generate_complete_tree";
      rec.graph_family = "complete_tree";
      rec.n = static_cast<std::uint64_t>(n);
      rec.delta = tree_delta;
      rec.wall_seconds = tree_seconds;
      rec.verified =
          tree.num_edges() == n - 1 && tree.max_degree() == tree_delta;
      CKP_CHECK(rec.verified);
      rec.metric("nodes_per_sec", tree_nodes_per_sec);
      add_resource_run_metrics(rec, before);
      reporter.add(std::move(rec));
    }

    for (int s = 0; s < seeds; ++s) {
      LocalInput in;
      in.graph = &g;
      in.seed = static_cast<std::uint64_t>(s) + 1;

      if (enabled("luby")) {
        // Untimed warmup: the first engine run on a fresh heap pays the page
        // faults for cur/nxt/active; without it the timed run measures
        // the allocator, not the rounds.
        (void)mis_luby(in, 1 << 20, packed_opts);
        before = shared_pool_stats();
        Timer luby_timer;
        const auto luby = mis_luby(in, 1 << 20, packed_opts);
        const double luby_seconds = luby_timer.seconds();
        CKP_CHECK(luby.completed);
        CKP_CHECK(verify_mis(g, luby.in_set).ok);
        luby_node_rounds_per_sec =
            static_cast<double>(n) * luby.rounds / luby_seconds;
        luby_bytes_per_node = gate("mis_luby", luby.engine_bytes, n,
                                   budget_bytes);
        RunRecord rec = engine_record("mis_luby_packed", in.seed, luby.rounds,
                                      luby_seconds, luby_bytes_per_node,
                                      before);
        for (const auto& [name, value] : rec.metrics()) {
          if (name == "pool_utilization") util = value;
        }

        reporter.add(std::move(rec));
      }

      if (enabled("ghaffari")) {
        before = shared_pool_stats();
        Timer timer;
        const auto ghaffari = mis_ghaffari_local(in, 1 << 20, packed_opts);
        const double seconds = timer.seconds();
        CKP_CHECK(ghaffari.completed);
        CKP_CHECK(verify_mis(g, ghaffari.in_set).ok);
        ghaffari_bytes_per_node =
            gate("mis_ghaffari_local", ghaffari.engine_bytes, n, budget_bytes);
        RunRecord rec =
            engine_record("mis_ghaffari_local", in.seed, ghaffari.rounds,
                          seconds, ghaffari_bytes_per_node, before);
        rec.metric("residue_nodes",
                   static_cast<double>(ghaffari.residue_nodes));
        rec.metric("largest_residue_component",
                   static_cast<double>(ghaffari.largest_residue_component));
        reporter.add(std::move(rec));
      }

      // The randomized matching's proposal field caps m at 2^26 edges.
      if (enabled("matching_rand") &&
          static_cast<std::uint64_t>(g.num_edges()) < (1ULL << 26)) {
        before = shared_pool_stats();
        Timer timer;
        const auto matching = matching_randomized_local(in, 1 << 20,
                                                        packed_opts);
        const double seconds = timer.seconds();
        CKP_CHECK(matching.completed);
        CKP_CHECK(verify_maximal_matching(g, matching.in_matching).ok);
        // Stateless draws: no RNG-stream surcharge, only the labels'.
        mrand_bytes_per_node =
            gate("matching_randomized_local", matching.engine_bytes, n,
                 budget_bytes + label_budget_extra);
        reporter.add(engine_record("matching_randomized_local", in.seed,
                                   matching.rounds, seconds,
                                   mrand_bytes_per_node, before));
      }

      if (enabled("plus_one")) {
        before = shared_pool_stats();
        Timer timer;
        const auto coloring = plus_one_local(in, d + 1, 1 << 20, packed_opts);
        const double seconds = timer.seconds();
        CKP_CHECK(coloring.completed);
        CKP_CHECK(verify_coloring(g, coloring.colors, d + 1).ok);
        plus_one_bytes_per_node =
            gate("plus_one_local", coloring.engine_bytes, n, budget_bytes);
        reporter.add(engine_record("plus_one_local", in.seed, coloring.rounds,
                                   seconds, plus_one_bytes_per_node, before));
      }

      if (enabled("sinkless")) {
        before = shared_pool_stats();
        Timer sink_timer;
        LocalInput sink_in = in;
        sink_in.edge_labels = ecg.edge_color;
        const auto sink = sinkless_local(sink_in, 1 << 14, packed_opts);
        const double sink_seconds = sink_timer.seconds();
        const double sink_bytes_per_node =
            gate("sinkless_local", sink.engine_bytes, n,
                 budget_bytes + label_budget_extra);
        RunRecord srec =
            engine_record("sinkless_local", in.seed, sink.rounds,
                          sink_seconds, sink_bytes_per_node, before);
        srec.verified = sink.completed;
        srec.metric("unsatisfied", static_cast<double>(sink.unsatisfied));
        reporter.add(std::move(srec));
      }

      if (enabled("thm10")) {
        LocalInput tin;
        tin.graph = &tree;
        tin.seed = in.seed;
        before = shared_pool_stats();
        Timer timer;
        const auto r = delta_coloring_thm10_local(tin, 1 << 20, packed_opts);
        const double seconds = timer.seconds();
        CKP_CHECK(r.completed);
        CKP_CHECK(verify_coloring(tree, r.colors, tree_delta).ok);
        thm10_bytes_per_node = gate("delta_coloring_thm10_local",
                                    r.engine_bytes, n, budget_bytes);
        RunRecord rec =
            engine_record("delta_coloring_thm10_local", tin.seed, r.rounds,
                          seconds, thm10_bytes_per_node, before);
        rec.graph_family = "complete_tree";
        rec.delta = tree_delta;
        rec.metric("bad_vertices", static_cast<double>(r.bad_vertices));
        rec.metric("largest_bad_component",
                   static_cast<double>(r.largest_bad_component));
        reporter.add(std::move(rec));
      }

      if (enabled("thm11")) {
        LocalInput tin;
        tin.graph = &tree;
        tin.seed = in.seed;
        before = shared_pool_stats();
        Timer timer;
        const auto r = delta_coloring_thm11_local(tin, 1 << 20, packed_opts);
        const double seconds = timer.seconds();
        CKP_CHECK(r.completed);
        CKP_CHECK(verify_coloring(tree, r.colors, tree_delta).ok);
        thm11_bytes_per_node = gate("delta_coloring_thm11_local",
                                    r.engine_bytes, n, budget_bytes);
        RunRecord rec =
            engine_record("delta_coloring_thm11_local", tin.seed, r.rounds,
                          seconds, thm11_bytes_per_node, before);
        rec.graph_family = "complete_tree";
        rec.delta = tree_delta;
        rec.metric("phase2_set_size",
                   static_cast<double>(r.phase2_set_size));
        rec.metric("phase2_largest_component",
                   static_cast<double>(r.phase2_largest_component));
        rec.metric("phase3_set_size",
                   static_cast<double>(r.phase3_set_size));
        reporter.add(std::move(rec));
      }
    }

    // DetLOCAL roster: static schedule — the active sets shrink uniformly
    // here, so stealing has nothing to gain and the static rows double as
    // scheduler coverage.
    EngineOptions det_opts;
    det_opts.threads = threads;

    if (enabled("greedy")) {
      LocalInput in;
      in.graph = &g;
      in.ids = sequential_ids(n);
      before = shared_pool_stats();
      Timer greedy_timer;
      const auto greedy = greedy_color_local(in, d + 1, 1 << 20, det_opts);
      const double greedy_seconds = greedy_timer.seconds();
      CKP_CHECK(greedy.completed);
      CKP_CHECK(verify_coloring(g, greedy.colors, d + 1).ok);
      greedy_bytes_per_node =
          gate("greedy_color_local", greedy.engine_bytes, n, budget_bytes);
      RunRecord rec =
          engine_record("greedy_color_local", 0, greedy.rounds,
                        greedy_seconds, greedy_bytes_per_node, before);
      rec.metric("budget_bytes_per_node", budget_bytes);
      reporter.add(std::move(rec));
    }

    if (enabled("matching_det")) {
      LocalInput in;
      in.graph = &g;
      in.ids = sequential_ids(n);
      before = shared_pool_stats();
      Timer timer;
      const auto matching = matching_deterministic_local(in, 1 << 20,
                                                         det_opts);
      const double seconds = timer.seconds();
      CKP_CHECK(matching.completed);
      CKP_CHECK(verify_maximal_matching(g, matching.in_matching).ok);
      mdet_bytes_per_node =
          gate("matching_deterministic_local", matching.engine_bytes, n,
               budget_bytes);
      reporter.add(engine_record("matching_deterministic_local", 0,
                                 matching.rounds, seconds,
                                 mdet_bytes_per_node, before));
    }

    t.add_row({Table::cell(static_cast<std::int64_t>(n)),
               Table::cell(static_cast<double>(n) / gen_seconds / 1e6, 2),
               Table::cell(tree_nodes_per_sec / 1e6, 2),
               Table::cell(luby_node_rounds_per_sec / 1e6, 1),
               Table::cell(luby_bytes_per_node, 1),
               Table::cell(ghaffari_bytes_per_node, 1),
               Table::cell(mrand_bytes_per_node, 1),
               Table::cell(mdet_bytes_per_node, 1),
               Table::cell(plus_one_bytes_per_node, 1),
               Table::cell(greedy_bytes_per_node, 1),
               Table::cell(thm10_bytes_per_node, 1),
               Table::cell(thm11_bytes_per_node, 1), Table::cell(util, 2)});
  }
  reporter.print(t, std::cout);
  std::cout << "\nExpected shape: generation and engine throughput flat in n "
               "(streaming + packed state);\nevery B/n column under its "
               "budget (" << budget_bytes << ", label carriers +4Δ) "
               "(see EXPERIMENTS.md E18).\n";
  return 0;
}
