// Experiment E4 — graph shattering in Theorems 10 and 11.
//
// Measures, over many seeds, the size of the residual ("bad" / S) vertex
#include <cmath>
// sets after the randomized phase and the largest connected component they
// induce, against the paper's bounds (Δ⁴·log n for Thm 10; O(log n) for
// Thm 11 at Δ >= 55). The Δ sweep deliberately dips below 55 to probe the
// paper's remark that the constant cannot be made "too small".
// --packed runs the engine-native ports (algo/delta_coloring_local.hpp)
// instead of the monolith references: same statistic definitions, packed
// 8-byte node words, and a default sweep ceiling of 2^19 instead of 2^17
// (the byte-lean path is what makes the larger trees feasible). Packed
// trials cache under their own store keys (different random draws; the "2"
// in E4AP2/E4BP2 marks the ports' counter-based draws, as in E1P2).
#include <iostream>
#include <optional>

#include "algo/delta_coloring_local.hpp"
#include "core/delta_coloring_thm10.hpp"
#include "core/delta_coloring_thm11.hpp"
#include "core/distance_sets.hpp"
#include "graph/generators.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "obs/progress.hpp"
#include "obs/reporter.hpp"
#include "obs/trials.hpp"
#include "store/checkpoint.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ckp;
  Flags flags(argc, argv);
  const int seeds = static_cast<int>(flags.get_int("seeds", 5));
  const bool packed = flags.get_bool("packed", false);
  const int max_exp =
      static_cast<int>(flags.get_int("max-exp", packed ? 19 : 17));
  BenchReporter reporter(flags, "E4_shattering");
  // --store_dir caches the generated trees and commits per-seed RunRecords
  // as trials finish; --resume skips seeds already committed (DESIGN.md §8).
  const std::string store_dir = flags.get_string("store_dir", "");
  const bool resume = flags.get_bool("resume", false);
  flags.check_unknown();
  std::optional<ArtifactStore> store;
  if (!store_dir.empty()) store.emplace(store_dir);
  const ArtifactStore* store_ptr = store ? &*store : nullptr;
  int seeds_cached_total = 0;

  std::cout << "E4/Table A: Theorem 11 Phase-2 shattering (set S)\n"
            << "mean/max over " << seeds << " seeds; bound: O(log n) for Δ>=55\n\n";
  // One unit per (Δ, n) instance across both shattering tables; per-seed
  // heartbeats inside an instance come from run_trials_checkpointed when a
  // store is configured.
  const std::uint64_t exps = static_cast<std::uint64_t>(
      max_exp >= 13 ? (max_exp - 13) / 2 + 1 : 0);
  ProgressMeter meter("E4_shattering.sweep", (4 + 3) * exps);
  {
    Table t({"Δ", "n", "|S| mean", "maxcomp mean", "maxcomp max", "log2 n"});
    for (int delta : {16, 32, 55, 96}) {
      for (int e = 13; e <= max_exp; e += 2) {
        const NodeId n = static_cast<NodeId>(1) << e;
        const std::string instance_key = "complete_tree.d" +
                                         std::to_string(delta) + ".n" +
                                         std::to_string(n);
        const Graph g =
            store_ptr != nullptr
                ? store_ptr->graph(
                      instance_key,
                      [&] { return make_complete_tree(n, delta); })
                : make_complete_tree(n, delta);
        int seeds_cached = 0;
        auto trial_records = run_trials_checkpointed(
            store_ptr, (packed ? "E4AP2." : "E4A.") + instance_key, resume,
            seeds, reporter.threads(), [&](int s) -> std::vector<RunRecord> {
              const auto seed = static_cast<std::uint64_t>(s) + 1;
              RunRecord rec = reporter.make_record();
              rec.graph_family = "complete_tree";
              rec.n = n;
              rec.delta = delta;
              rec.seed = seed;
              rec.verified = true;
              if (packed) {
                LocalInput in;
                in.graph = &g;
                in.seed = seed;
                EngineOptions opts;
                opts.threads = reporter.threads();
                opts.schedule = EngineSchedule::kWorkStealing;
                const auto r = delta_coloring_thm11_local(in, 1 << 20, opts);
                CKP_CHECK(r.completed);
                CKP_CHECK(verify_coloring(g, r.colors, delta).ok);
                rec.algorithm = "thm11_local";
                rec.rounds = r.rounds;
                rec.metric("phase2_set_size",
                           static_cast<double>(r.phase2_set_size));
                rec.metric("phase2_largest_component",
                           static_cast<double>(r.phase2_largest_component));
                return {std::move(rec)};
              }
              RoundLedger ledger;
              const auto r = delta_coloring_thm11(g, delta, seed, ledger);
              CKP_CHECK(verify_coloring(g, r.colors, delta).ok);
              rec.algorithm = "thm11";
              rec.rounds = ledger.rounds();
              rec.trace = r.trace;
              rec.metric("phase2_set_size",
                         static_cast<double>(r.phase2_set_size));
              rec.metric("phase2_largest_component",
                         static_cast<double>(r.phase2_largest_component));
              return {std::move(rec)};
            },
            &seeds_cached);
        seeds_cached_total += seeds_cached;
        Accumulator set_size, comp, comp_max;
        for (RunRecord& rec : trial_records) {
          set_size.add(metric_or(rec, "phase2_set_size", 0.0));
          comp.add(metric_or(rec, "phase2_largest_component", 0.0));
          comp_max.add(metric_or(rec, "phase2_largest_component", 0.0));
          reporter.add(std::move(rec));
        }
        t.add_row({Table::cell(delta), Table::cell(static_cast<std::int64_t>(n)),
                   Table::cell(set_size.mean(), 1), Table::cell(comp.mean(), 1),
                   Table::cell(comp_max.max(), 0),
                   Table::cell(ilog2(static_cast<std::uint64_t>(n)))});
        meter.step();
      }
    }
    reporter.print(t, std::cout);
  }

  std::cout << "\nE4/Table B: Theorem 10 bad-vertex shattering\n"
            << "bound: Δ⁴·log n (loose); measured components are far smaller\n\n";
  {
    Table t({"Δ", "n", "bad mean", "maxcomp mean", "maxcomp max",
             "Δ⁴·log2 n"});
    for (int delta : {16, 32, 64}) {
      for (int e = 13; e <= max_exp; e += 2) {
        const NodeId n = static_cast<NodeId>(1) << e;
        const std::string instance_key = "complete_tree.d" +
                                         std::to_string(delta) + ".n" +
                                         std::to_string(n);
        const Graph g =
            store_ptr != nullptr
                ? store_ptr->graph(
                      instance_key,
                      [&] { return make_complete_tree(n, delta); })
                : make_complete_tree(n, delta);
        int seeds_cached = 0;
        auto trial_records = run_trials_checkpointed(
            store_ptr, (packed ? "E4BP2." : "E4B.") + instance_key, resume,
            seeds, reporter.threads(), [&](int s) -> std::vector<RunRecord> {
              const auto seed = static_cast<std::uint64_t>(s) + 1;
              RunRecord rec = reporter.make_record();
              rec.graph_family = "complete_tree";
              rec.n = n;
              rec.delta = delta;
              rec.seed = seed;
              rec.verified = true;
              if (packed) {
                LocalInput in;
                in.graph = &g;
                in.seed = seed;
                EngineOptions opts;
                opts.threads = reporter.threads();
                opts.schedule = EngineSchedule::kWorkStealing;
                const auto r = delta_coloring_thm10_local(in, 1 << 20, opts);
                CKP_CHECK(r.completed);
                CKP_CHECK(verify_coloring(g, r.colors, delta).ok);
                rec.algorithm = "thm10_local";
                rec.rounds = r.rounds;
                rec.metric("bad_vertices",
                           static_cast<double>(r.bad_vertices));
                rec.metric("largest_bad_component",
                           static_cast<double>(r.largest_bad_component));
                return {std::move(rec)};
              }
              RoundLedger ledger;
              const auto r = delta_coloring_thm10(g, delta, seed, ledger);
              CKP_CHECK(verify_coloring(g, r.colors, delta).ok);
              rec.algorithm = "thm10";
              rec.rounds = ledger.rounds();
              rec.trace = r.trace;
              rec.metric("bad_vertices", static_cast<double>(r.bad_vertices));
              rec.metric("largest_bad_component",
                         static_cast<double>(r.largest_bad_component));
              return {std::move(rec)};
            },
            &seeds_cached);
        seeds_cached_total += seeds_cached;
        Accumulator bad, comp;
        for (RunRecord& rec : trial_records) {
          bad.add(metric_or(rec, "bad_vertices", 0.0));
          comp.add(metric_or(rec, "largest_bad_component", 0.0));
          reporter.add(std::move(rec));
        }
        const double bound = static_cast<double>(delta) * delta * delta *
                             delta *
                             static_cast<double>(ilog2(static_cast<std::uint64_t>(n)));
        t.add_row({Table::cell(delta), Table::cell(static_cast<std::int64_t>(n)),
                   Table::cell(bad.mean(), 1), Table::cell(comp.mean(), 1),
                   Table::cell(comp.max(), 0), Table::cell(bound, 0)});
        meter.step();
      }
    }
    reporter.print(t, std::cout);
  }
  meter.finish();
  std::cout << "\nE4/Table C: Lemma 3 — exhaustive distance-k set counts vs"
            << " the 4^t·n·Δ^{k(t-1)} bound\n\n";
  {
    Table t({"graph", "n", "Δ", "k", "t", "exact count", "log2(exact)",
             "log2(bound)"});
    Rng rng(0xE4C);
    struct Named { const char* name; Graph graph; };
    std::vector<Named> graphs;
    graphs.push_back({"cycle", make_cycle(64)});
    graphs.push_back({"tree(Δ=3)", make_complete_tree(80, 3)});
    graphs.push_back({"tree(Δ=5)", make_complete_tree(120, 5)});
    for (const auto& [name, g] : graphs) {
      for (int k : {2, 3, 5}) {
        for (int tt : {2, 3}) {
          const std::uint64_t exact = count_distance_k_sets(g, k, tt);
          const double bound = lemma3_log2_bound(
              static_cast<std::uint64_t>(g.num_nodes()),
              std::max(1, g.max_degree()), k, tt);
          t.add_row({name, Table::cell(static_cast<std::int64_t>(g.num_nodes())),
                     Table::cell(g.max_degree()), Table::cell(k),
                     Table::cell(tt), Table::cell(exact),
                     Table::cell(exact == 0
                                     ? 0.0
                                     : std::log2(static_cast<double>(exact)),
                                 1),
                     Table::cell(bound, 1)});
        }
      }
    }
    reporter.print(t, std::cout);
  }

  if (store_ptr != nullptr) {
    std::cout << "\n[store] " << (resume ? "resume: " : "")
              << seeds_cached_total << " seeds served from "
              << store_ptr->dir() << '\n';
  }
  std::cout << "\nExpected shape: max component sizes grow ~ log n and stay"
            << " far below the theorem bounds; smaller Δ yields larger\n"
            << "components (the paper's 'Δ not too small' remark).\n";
  return 0;
}
