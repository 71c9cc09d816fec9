// Experiment E1 — the headline result ("Result 1" of the paper):
// Δ-coloring trees takes Θ(log_Δ n) rounds deterministically but only
// O(log_Δ log n + log* n) rounds randomized — an exponential separation.
//
// For each (n, Δ) this harness measures, on the same complete degree-Δ tree:
//   det      — Theorem 9 (Barenboim–Elkin) q-coloring with q = Δ,
//              the optimal deterministic algorithm (rounds ~ log_Δ n);
//   rand10   — Theorem 10 (ColorBidding + shattering), mean over seeds;
//   rand11   — Theorem 11 (MIS peeling + shattering), mean over seeds.
// All outputs are verified proper Δ-colorings. The expected shape: the det
// column grows linearly in log n while both randomized columns stay nearly
// flat; the ratio det/rand widens without bound.
//
// --packed switches the randomized columns to the engine-native ports
// (algo/delta_coloring_local.hpp): same algorithms, 8-byte packed node
// words on the parallel fast path. That drops the per-node footprint
// enough to raise the default sweep ceiling from 2^20 to 2^22 (4× n).
// Engine rounds count one communication round per engine round, so the
// measured shape is the same; the random draws differ from the monolith
// references, so packed runs are cached under their own store keys (the
// "2" in E1P2 marks the ports' counter-based draws, whose records must not
// resume into a sweep begun with the earlier per-node streams).
#include <iostream>
#include <optional>

#include "algo/be_tree_coloring.hpp"
#include "algo/delta_coloring_local.hpp"
#include "core/delta_coloring_thm10.hpp"
#include "core/delta_coloring_thm11.hpp"
#include "graph/trees.hpp"
#include "lcl/verify_coloring.hpp"
#include "local/ids.hpp"
#include "obs/progress.hpp"
#include "obs/reporter.hpp"
#include "obs/trials.hpp"
#include "store/checkpoint.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/math.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace ckp;
  Flags flags(argc, argv);
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));
  const bool packed = flags.get_bool("packed", false);
  const int max_exp =
      static_cast<int>(flags.get_int("max-exp", packed ? 22 : 20));
  BenchReporter reporter(flags, "E1_separation");
  // --store_dir caches generated graphs and commits per-seed RunRecords as
  // trials finish; --resume additionally skips seeds already committed
  // (their records re-emit byte-identically). See DESIGN.md §8.
  const std::string store_dir = flags.get_string("store_dir", "");
  const bool resume = flags.get_bool("resume", false);
  flags.check_unknown();
  std::optional<ArtifactStore> store;
  if (!store_dir.empty()) store.emplace(store_dir);
  const ArtifactStore* store_ptr = store ? &*store : nullptr;
  int seeds_cached_total = 0;

  std::cout << "E1: exponential separation for Δ-coloring trees\n"
            << "det = Thm 9 (q=Δ); rand10 = Thm 10; rand11 = Thm 11"
            << (packed ? " (packed engine ports)" : "")
            << "; rounds averaged over " << seeds << " seeds\n\n";

  Table table({"Δ", "n", "log_Δ n", "det", "rand10", "rand11",
               "det/rand10"});
  // One unit per (Δ, n) instance; per-seed heartbeats inside an instance
  // come from run_trials_checkpointed when a store is configured.
  ProgressMeter meter("E1_separation.sweep",
                      static_cast<std::uint64_t>(
                          3 * (max_exp >= 8 ? (max_exp - 8) / 2 + 1 : 0)));
  for (int delta : {16, 32, 64}) {
    for (int e = 8; e <= max_exp; e += 2) {
      const NodeId n = static_cast<NodeId>(1) << e;
      const std::string instance_key =
          "complete_tree.d" + std::to_string(delta) + ".n" + std::to_string(n);
      const Graph g =
          store_ptr != nullptr
              ? store_ptr->graph(instance_key,
                                 [&] { return make_complete_tree(n, delta); })
              : make_complete_tree(n, delta);

      Rng rng(mix_seed(0xE1, static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(delta)));
      const auto ids = random_ids(n, 2 * ceil_log2(static_cast<std::uint64_t>(n)),
                                  rng);
      RoundLedger det_ledger;
      Timer det_timer;
      const auto det = be_tree_coloring(g, delta, ids, det_ledger);
      const double det_seconds = det_timer.seconds();
      CKP_CHECK(verify_coloring(g, det.colors, delta).ok);
      {
        RunRecord rec = reporter.make_record();
        rec.algorithm = "be_tree_coloring";
        rec.graph_family = "complete_tree";
        rec.n = n;
        rec.delta = delta;
        rec.rounds = det_ledger.rounds();
        rec.wall_seconds = det_seconds;
        rec.verified = true;
        rec.metric("layers", det.layers);
        reporter.add(std::move(rec));
      }

      // Independent seeds fan out across the thread pool; records come back
      // in seed order so tables and JSONL are identical at any --threads.
      // With a store, each seed's records are committed as it finishes and
      // a resumed run skips the committed ones.
      int seeds_cached = 0;
      auto trial_records = run_trials_checkpointed(
          store_ptr, (packed ? "E1P2." : "E1.") + instance_key, resume, seeds,
          reporter.threads(),
          [&](int s) -> std::vector<RunRecord> {
            const auto seed = static_cast<std::uint64_t>(s) + 1;
            if (packed) {
              LocalInput in;
              in.graph = &g;
              in.seed = seed;
              EngineOptions opts;
              opts.threads = reporter.threads();
              opts.schedule = EngineSchedule::kWorkStealing;
              Timer t10;
              const auto a = delta_coloring_thm10_local(in, 1 << 20, opts);
              const double sec10 = t10.seconds();
              CKP_CHECK(a.completed);
              CKP_CHECK(verify_coloring(g, a.colors, delta).ok);
              RunRecord rec10 = reporter.make_record();
              rec10.algorithm = "thm10_local";
              rec10.graph_family = "complete_tree";
              rec10.n = n;
              rec10.delta = delta;
              rec10.seed = seed;
              rec10.rounds = a.rounds;
              rec10.wall_seconds = sec10;
              rec10.verified = true;
              rec10.metric("bad_vertices",
                           static_cast<double>(a.bad_vertices));
              rec10.metric("largest_bad_component",
                           static_cast<double>(a.largest_bad_component));
              rec10.metric("engine_bytes_per_node",
                           static_cast<double>(a.engine_bytes) /
                               static_cast<double>(n));
              Timer t11;
              const auto b = delta_coloring_thm11_local(in, 1 << 20, opts);
              const double sec11 = t11.seconds();
              CKP_CHECK(b.completed);
              CKP_CHECK(verify_coloring(g, b.colors, delta).ok);
              RunRecord rec11 = reporter.make_record();
              rec11.algorithm = "thm11_local";
              rec11.graph_family = "complete_tree";
              rec11.n = n;
              rec11.delta = delta;
              rec11.seed = seed;
              rec11.rounds = b.rounds;
              rec11.wall_seconds = sec11;
              rec11.verified = true;
              rec11.metric("phase2_set_size",
                           static_cast<double>(b.phase2_set_size));
              rec11.metric("phase2_largest_component",
                           static_cast<double>(b.phase2_largest_component));
              rec11.metric("engine_bytes_per_node",
                           static_cast<double>(b.engine_bytes) /
                               static_cast<double>(n));
              return {std::move(rec10), std::move(rec11)};
            }
            RoundLedger l10, l11;
            Timer t10;
            const auto a = delta_coloring_thm10(g, delta, seed, l10);
            const double sec10 = t10.seconds();
            CKP_CHECK(verify_coloring(g, a.colors, delta).ok);
            RunRecord rec10 = reporter.make_record();
            rec10.algorithm = "thm10";
            rec10.graph_family = "complete_tree";
            rec10.n = n;
            rec10.delta = delta;
            rec10.seed = seed;
            rec10.rounds = l10.rounds();
            rec10.wall_seconds = sec10;
            rec10.verified = true;
            rec10.trace = a.trace;
            rec10.metric("bad_vertices", static_cast<double>(a.bad_vertices));
            rec10.metric("largest_bad_component",
                         static_cast<double>(a.largest_bad_component));
            Timer t11;
            const auto b = delta_coloring_thm11(g, delta, seed, l11);
            const double sec11 = t11.seconds();
            CKP_CHECK(verify_coloring(g, b.colors, delta).ok);
            RunRecord rec11 = reporter.make_record();
            rec11.algorithm = "thm11";
            rec11.graph_family = "complete_tree";
            rec11.n = n;
            rec11.delta = delta;
            rec11.seed = seed;
            rec11.rounds = l11.rounds();
            rec11.wall_seconds = sec11;
            rec11.verified = true;
            rec11.trace = b.trace;
            rec11.metric("phase2_set_size",
                         static_cast<double>(b.phase2_set_size));
            rec11.metric("phase2_largest_component",
                         static_cast<double>(b.phase2_largest_component));
            return {std::move(rec10), std::move(rec11)};
          },
          &seeds_cached);
      seeds_cached_total += seeds_cached;
      Accumulator r10, r11;
      for (RunRecord& rec : trial_records) {
        (rec.algorithm.compare(0, 5, "thm10") == 0 ? r10 : r11)
            .add(rec.rounds);
        reporter.add(std::move(rec));
      }
      table.add_row({Table::cell(delta), Table::cell(static_cast<std::int64_t>(n)),
                     Table::cell(ilog_base(static_cast<std::uint64_t>(delta),
                                           static_cast<std::uint64_t>(n))),
                     Table::cell(det_ledger.rounds()), Table::cell(r10.mean(), 1),
                     Table::cell(r11.mean(), 1),
                     Table::cell(det_ledger.rounds() / r10.mean(), 2)});
      meter.step();
    }
  }
  meter.finish();
  reporter.print(table, std::cout);
  if (store_ptr != nullptr) {
    std::cout << "\n[store] " << (resume ? "resume: " : "")
              << seeds_cached_total << " seeds served from "
              << store_ptr->dir() << '\n';
  }
  std::cout << "\nExpected shape: det grows with log_Δ n; rand columns stay"
            << " nearly flat; det/rand widens as n grows.\n";
  return 0;
}
