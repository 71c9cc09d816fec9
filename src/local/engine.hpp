// The synchronous LOCAL-model execution engine.
//
// In the LOCAL model a round consists of (send to all neighbors, receive,
// compute); message size is unbounded, so without loss of generality every
// node sends its entire state. The engine enforces locality *structurally*:
// a node's transition function receives only its own state, its static local
// environment (degree, declared global parameters, its ID if DetLOCAL, the
// seed and round number that key its random draws if RandLOCAL, its incident
// edge labels) and port-ordered read-only views of its neighbors'
// previous-round states.
// There is no way for a well-typed algorithm to read remote state.
//
// An algorithm models one node's program:
//
//   struct MyAlgo {
//     struct State { ... };                   // trivially copyable
//     State init(const NodeEnv& env);         // before round 1
//     // One synchronous round. Return true to halt. `nbrs[i]` is the
//     // previous-round state of the i-th neighbor (port order = sorted
//     // neighbor order of the Graph).
//     bool step(State& self, const NodeEnv& env,
//               std::span<const State* const> nbrs);
//   };
//
// Halted nodes stop executing but their final state remains visible to
// neighbors, matching the standard definition of local termination.
//
// Parallel execution. Within a round, node steps are data-independent by
// construction — step reads only previous-round states and writes only the
// node's own next state, and a random draw reads no state at all — so the
// node loop runs as a parallel_for over contiguous chunks of the active-node
// list. The round barrier coincides with LOCAL's message delivery, chunk
// merge order is ascending node order, and every draw is a pure function of
// its key (seed, node, round, draw#), never of which thread computes it or
// when, so results are bit-identical for every thread count (see
// tests/test_engine_parallel.cpp). The one obligation this puts on
// algorithms: step must not mutate shared members of the algorithm object
// (all in-repo algorithms keep their per-node data in State and are
// stateless as objects).
//
// Scheduling. By default each round dispatches one contiguous chunk per
// thread (static partition). EngineOptions::schedule selects work-stealing
// instead: the round splits into ~8× more chunks than threads and idle
// workers claim the next unstarted chunk, which keeps the pool busy when the
// active set is skewed (a few expensive chunks after shattering). The chunk
// *boundaries* are a pure function of (active count, chunk count), per-chunk
// results land in per-chunk slots, and the barrier merges them in ascending
// chunk order — so the scheduler changes who computes a chunk, never what
// any chunk computes, and results stay bit-identical across schedulers and
// thread counts (DESIGN.md §11).
//
// State contract. State must be trivially copyable (by convention a
// bit-field POD): the engine double-buffers states in flat arrays and
// static_asserts the contract. The steady-state round loop of an unobserved
// run is certified allocation-free on the dispatching thread, so an
// algorithm whose step allocates fails loudly (see detail::run_engine).
// tests/reference_engine.hpp holds a deliberately naive sequential engine
// the loop is differentially tested against.
//
// Prefetch. A round gathers every neighbor's previous state from scattered
// slots of the `cur` array (8 MB at n = 2^20), so the loop stalls on cache
// misses. step_chunk therefore prefetches the neighbor states of the node
// detail::kPrefetchDistance active-list positions ahead, inside its own
// chunk only. A prefetch is a hint: it loads no value the step sees and
// writes nothing, so results are bit-identical for every thread count and
// scheduler, and the distance is a constant rather than an option because
// it can only change timing (8 and 16 measured the same). Measured with
// perfbench engine_roster (n = 2^20, 1 thread, a container host delivering
// about one core): against the same tree without it, jobs_per_s rose
// 3.03 -> 3.52 (10 alternating pairs, 10 wins); in 6 traced pairs the
// rounds layer local.rounds_s went 0.205 -> 0.165 s per job, and
// local.setup_init_s 0.079 -> 0.066 s from the linear-time ids_unique
// that landed with it (DESIGN.md §11).
//
// Randomness. A RandLOCAL node's private random bits are counter-based:
// env.draw(k) hashes (seed, node index, round, k), one hash per draw, so the
// engine builds, stores and advances no per-node generator. Distinct keys
// give independent-looking values, which is all the model asks of private
// random bits; a node that needs several values in one round uses
// k = 0, 1, .... A DetLOCAL node (one with an ID) fails loudly on any draw.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "local/budget.hpp"
#include "local/context.hpp"
#include "obs/observer.hpp"
#include "obs/resource.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ckp {

// Per-node static environment handed to init/step.
struct NodeEnv {
  NodeId index = kInvalidNode;  // the node's position in the graph arrays;
                                // NOT an ID — RandLOCAL algorithms must not
                                // use it to break symmetry (reviewed per
                                // algorithm; the engine cannot hide it
                                // because outputs are indexed by it)
  int degree = 0;
  std::uint64_t declared_n = 0;
  int declared_delta = 0;
  std::uint64_t id = kNoId;  // kNoId in RandLOCAL
  std::uint64_t seed = 0;    // the run's seed (LocalInput::seed)
  int round = 0;             // 0 in init, r in round r
  std::span<const int> incident_edge_labels;  // aligned with ports

  bool has_id() const { return id != kNoId; }

  // Draw #k of this node in this round (RandLOCAL only). Each key word is
  // XORed into the previous SplitMix64 output and finalized again, so
  // distinct keys collide only by chance; mix_seed's additive absorption
  // collides on short keys (mix_seed(0, 0, 1) == mix_seed(1, 2, 0)).
  std::uint64_t draw(std::uint64_t k) const {
    CKP_CHECK_MSG(!has_id(), "deterministic node asked for randomness");
    std::uint64_t s = seed;
    s = splitmix64(s) ^ ((static_cast<std::uint64_t>(index) << 32) |
                         static_cast<std::uint32_t>(round));
    s = splitmix64(s) ^ k;
    return splitmix64(s);
  }

  // Uniform in [0, bound), bias-free by the rejection of Rng::next_below; a
  // rejected value seeds the SplitMix64 sequence that continues the draw, so
  // the result stays a pure function of the key. bound > 0.
  std::uint64_t draw_below(std::uint64_t k, std::uint64_t bound) const {
    CKP_CHECK(bound > 0);
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    const std::uint64_t limit = kMax - kMax % bound;
    std::uint64_t x = draw(k);
    for (std::uint64_t s = x; x >= limit;) x = splitmix64(s);
    return x % bound;
  }
};

// How the per-round node loop is split across the thread pool. Both
// schedulers produce bit-identical results (see header comment); stealing
// only helps when per-chunk costs are skewed.
enum class EngineSchedule {
  kStatic,        // one contiguous chunk per thread
  kWorkStealing,  // ~8 chunks per thread, idle workers claim the next
};

struct EngineOptions {
  int threads = 0;  // 0 = default_engine_threads(); clamped to [1, n]
  EngineSchedule schedule = EngineSchedule::kStatic;
  // Optional execution budget (deadline / step limit / cancel flag; see
  // local/budget.hpp), checked once per round at the round barrier. Not
  // owned; must outlive the run. nullptr (the default) compiles the checks
  // away behind one branch, and a budget that never triggers leaves results
  // bit-identical to an un-budgeted run.
  RunBudget* budget = nullptr;
};

template <typename A>
struct EngineResult {
  std::vector<typename A::State> states;
  int rounds = 0;
  bool all_halted = false;
  // True when EngineOptions::budget stopped the run at a round barrier
  // (the reason is recorded on the budget itself). `states` then holds the
  // last completed round — a consistent partial result, never a torn one.
  bool interrupted = false;
  // Heap bytes the engine allocated for this run (state buffers, edge
  // labels, active/halt bookkeeping). Exact — summed from container
  // capacities, not sampled from RSS — so benches can report engine-side
  // bytes/node deterministically.
  std::uint64_t engine_bytes = 0;
};

namespace detail {

// Tag type selecting the uninstrumented engine path. All observer hook sites
// are guarded by `if constexpr`, so run_local without an observer compiles
// to exactly the code it had before observers existed — no virtual calls, no
// timers, no per-round bookkeeping.
struct NullEngineObserver {};

// Work-stealing granularity: chunks per participating thread. More chunks
// bound the tail latency of a skewed round by 1/kStealChunksPerThread of the
// worst thread's work at the cost of proportionally more dispatch overhead.
inline constexpr int kStealChunksPerThread = 8;

// How many active-list positions ahead step_chunk prefetches neighbor
// states; a constant, not an option (see the header comment).
inline constexpr std::int64_t kPrefetchDistance = 8;

// Chunk count of one round: the static schedule always uses one chunk per
// thread; stealing targets kStealChunksPerThread × threads but never more
// chunks than active nodes. Depends only on deterministic inputs.
inline int round_chunk_count(std::int64_t active_count, int threads,
                             bool stealing) {
  if (!stealing) return threads;
  const auto target =
      static_cast<std::int64_t>(threads) * kStealChunksPerThread;
  return static_cast<int>(std::clamp<std::int64_t>(active_count, 1, target));
}

// Capacity footprint of a vector, for EngineResult::engine_bytes.
template <typename T>
std::uint64_t vec_bytes(const std::vector<T>& v) {
  return static_cast<std::uint64_t>(v.capacity()) * sizeof(T);
}

// Flag-driven left-pack: copies src[i] (i in [0, count)) with
// (flags[i] != 0) == want into dst, preserving order, and returns how many
// were written. Both engine compactions are this one function: want=true
// builds a chunk's halt slab from the done flags, want=false compacts the
// survivors out of the active list. dst may alias src (in-place left-pack):
// the write index never passes the read index.
inline std::int64_t compact_by_flag(NodeId* dst, const NodeId* src,
                                    const std::uint8_t* flags,
                                    std::int64_t count, bool want) {
  std::int64_t out = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    dst[out] = src[i];
    out += static_cast<std::int64_t>((flags[i] != 0) == want);
  }
  return out;
}

// The round loop (see header comment). Storage and bookkeeping:
//
//   * no cached NodeEnv array — the environment is a handful of loads
//     rebuilt per step;
//   * no neighbor-pointer tables — neighbor views are assembled into a
//     per-chunk scratch row of at most Δ pointers, which stays L1-resident;
//   * the step loop records one done byte per active-list position; halts
//     are then left-packed per chunk into a slab region (chunk c owns
//     slab[chunk_begin..), so regions are disjoint and the chunk-order merge
//     reads them back in ascending node order) and the active list is
//     left-packed in place at the barrier, both by compact_by_flag;
//   * a halted node's stale entry in the other buffer is refreshed at merge
//     time, so both buffers hold its final state from then on.
//
// When unobserved, the whole round loop runs under AssertNoAlloc on the
// dispatching thread: the engine's own steady state allocates nothing, and an
// algorithm whose step allocates fails loudly (worker-thread allocations are
// certified separately by the threads=1 tests, where the dispatching thread
// runs every chunk).
template <typename A, typename Obs>
EngineResult<A> run_engine(const LocalInput& input, A& algo, int max_rounds,
                           Obs* obs, const EngineOptions& opts) {
  using State = typename A::State;
  static_assert(std::is_trivially_copyable_v<State>,
                "engine algorithms need a trivially copyable State");
  constexpr bool kObserved = !std::is_same_v<Obs, NullEngineObserver>;
  input.validate();
  const Graph& g = *input.graph;
  const NodeId n = g.num_nodes();

  int threads = opts.threads > 0 ? opts.threads : default_engine_threads();
  // No nested parallelism: inside a trial fan-out (or any parallel_for
  // body) the engine degrades to sequential; the outer fan-out keeps the
  // hardware busy at the better granularity.
  if (in_parallel_worker()) threads = 1;
  threads = std::clamp<int>(threads, 1, std::max<NodeId>(n, 1));
  const bool stealing =
      opts.schedule == EngineSchedule::kWorkStealing && threads > 1;
  const int max_chunks =
      stealing ? threads * kStealChunksPerThread : threads;

  // Incident edge labels flattened onto the graph's adjacency slots: the
  // label of port k of node v lives at the same index as adjacency entry k
  // of v, so a node's port-aligned label span is recovered from the offset
  // of its neighbor span — no per-node offset table.
  std::vector<int> labels_flat;
  if (!input.edge_labels.empty()) {
    labels_flat.resize(2 * static_cast<std::size_t>(g.num_edges()));
    std::size_t k = 0;
    for (NodeId v = 0; v < n; ++v) {
      for (EdgeId e : g.incident_edges(v)) {
        labels_flat[k++] = input.edge_labels[static_cast<std::size_t>(e)];
      }
    }
  }
  const NodeId* adj_base = n > 0 ? g.neighbors(0).data() : nullptr;

  const std::uint64_t declared_n = input.effective_n();
  const int declared_delta = input.effective_delta();
  const bool has_ids = input.has_ids();
  // RandLOCAL is defined by the *absence* of IDs, not by the seed: a
  // DetLOCAL node carries the seed too but cannot draw (NodeEnv::draw).
  auto env_of = [&](NodeId v, std::span<const NodeId> nbrs, int round) {
    NodeEnv env;
    env.index = v;
    env.degree = static_cast<int>(nbrs.size());
    env.declared_n = declared_n;
    env.declared_delta = declared_delta;
    env.id = has_ids ? input.id_of(v) : kNoId;
    env.seed = input.seed;
    env.round = round;
    if (!labels_flat.empty()) {
      env.incident_edge_labels = std::span<const int>(
          labels_flat.data() + (nbrs.data() - adj_base), nbrs.size());
    }
    return env;
  };

  [[maybe_unused]] Timer run_timer;
  EngineResult<A> result;

  std::vector<State> buf_a;
  buf_a.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    buf_a.push_back(algo.init(env_of(v, g.neighbors(v), 0)));
  }
  std::vector<State> buf_b(buf_a);
  State* cur = buf_a.data();  // latest completed round
  State* nxt = buf_b.data();  // scratch being written this round

  std::vector<NodeId> active(static_cast<std::size_t>(n));
  std::iota(active.begin(), active.end(), NodeId{0});
  // One done flag per *active-list position* (not per node), written by the
  // step loop and consumed by two flag-driven left-packs: chunk c compacts
  // its halts into slab positions [chunk_begin, chunk_begin +
  // halt_counts[c]) — regions disjoint by construction and ordered like the
  // chunks — and the barrier compacts survivors out of the active list in
  // place. Positional flags keep both compactions branch-free and cost the
  // same 1 B/node a per-node halted[] array would.
  std::vector<std::uint8_t> done(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> halt_slab(static_cast<std::size_t>(n));
  std::vector<std::int32_t> halt_counts(static_cast<std::size_t>(max_chunks),
                                        0);
  const int max_deg = std::max(g.max_degree(), 1);
  std::vector<const State*> nbr_scratch(
      static_cast<std::size_t>(max_chunks) * static_cast<std::size_t>(max_deg));
  [[maybe_unused]] std::vector<double> chunk_seconds;

  ThreadPool* pool = threads > 1 ? &shared_pool(threads) : nullptr;

  result.engine_bytes = vec_bytes(buf_a) + vec_bytes(buf_b) +
                        vec_bytes(labels_flat) + vec_bytes(done) +
                        vec_bytes(active) + vec_bytes(halt_slab) +
                        vec_bytes(halt_counts) + vec_bytes(nbr_scratch);

  NodeId num_halted = 0;
  std::int64_t active_count = n;
  std::optional<AssertNoAlloc> no_alloc;
  if constexpr (!kObserved) {
    // Opportunistic certificate: engage only when the interposed counters
    // are live. Under TSan (whose runtime owns operator new) or in a binary
    // that never linked obs/resource.cpp the counters sit idle and the
    // guard would fail spuriously; the loud mis-link detection stays with
    // the dedicated certificates in test_obs_resource / test_engine_packed.
    if (alloc_counting_active()) no_alloc.emplace("engine round loop");
  }
  if (opts.budget != nullptr &&
      opts.budget->charge(0) != BudgetStop::kNone) {
    result.interrupted = true;
  }
  while (!result.interrupted && num_halted < n && result.rounds < max_rounds) {
    [[maybe_unused]] Timer round_timer;
    const std::int64_t stepped = active_count;
    const int round = result.rounds + 1;
    const int chunks =
        pool == nullptr ? 1 : round_chunk_count(stepped, threads, stealing);
    if constexpr (kObserved) {
      obs->on_round_begin(round);
      chunk_seconds.assign(static_cast<std::size_t>(chunks), 0.0);
    }
    for (int c = 0; c < chunks; ++c) halt_counts[static_cast<std::size_t>(c)] = 0;

    auto step_chunk = [&](std::int64_t chunk_begin, std::int64_t chunk_end,
                          int chunk) {
      [[maybe_unused]] Timer chunk_timer;
      const State** row = nbr_scratch.data() +
                          static_cast<std::size_t>(chunk) *
                              static_cast<std::size_t>(max_deg);
      for (std::int64_t i = chunk_begin; i < chunk_end; ++i) {
        // Prefetch the neighbor states of the node kPrefetchDistance
        // positions ahead, never past this chunk's end (header comment).
        if (i + kPrefetchDistance < chunk_end) {
          const NodeId ahead =
              active[static_cast<std::size_t>(i + kPrefetchDistance)];
          for (const NodeId u : g.neighbors(ahead)) __builtin_prefetch(cur + u);
        }
        const NodeId v = active[static_cast<std::size_t>(i)];
        const std::span<const NodeId> nbrs = g.neighbors(v);
        const std::size_t deg = nbrs.size();
        for (std::size_t k = 0; k < deg; ++k) row[k] = cur + nbrs[k];
        State& mine = nxt[v];
        mine = cur[v];
        const NodeEnv env = env_of(v, nbrs, round);
        done[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
            algo.step(mine, env, std::span<const State* const>(row, deg)));
      }
      // Left-pack this chunk's halts (done positions) into its slab region.
      const std::int64_t len = chunk_end - chunk_begin;
      const std::int64_t halts = compact_by_flag(
          halt_slab.data() + chunk_begin, active.data() + chunk_begin,
          done.data() + chunk_begin, len, /*want=*/true);
      halt_counts[static_cast<std::size_t>(chunk)] =
          static_cast<std::int32_t>(halts);
      if constexpr (kObserved) {
        chunk_seconds[static_cast<std::size_t>(chunk)] = chunk_timer.seconds();
      }
    };
    if (pool == nullptr) {
      step_chunk(0, stepped, 0);
    } else if (stealing) {
      pool->parallel_for_dynamic(0, stepped, threads, chunks, step_chunk);
    } else {
      pool->parallel_for(0, stepped, chunks, step_chunk);
    }

    // Round barrier: walk the slab regions in ascending chunk order (=
    // ascending node order). A halted node's entry in the buffer about to
    // become scratch is refreshed here, so both buffers hold its final
    // state forever — no separate fresh-halts pass next round.
    std::int64_t halts_this_round = 0;
    for (int c = 0; c < chunks; ++c) {
      const auto [lo, hi] = ThreadPool::chunk_range(0, stepped, chunks, c);
      const std::int32_t cnt = halt_counts[static_cast<std::size_t>(c)];
      for (std::int32_t k = 0; k < cnt; ++k) {
        const NodeId v = halt_slab[static_cast<std::size_t>(lo + k)];
        cur[v] = nxt[v];
        if constexpr (kObserved) obs->on_node_halt(v, round);
      }
      halts_this_round += cnt;
    }
    num_halted += static_cast<NodeId>(halts_this_round);

    if (halts_this_round > 0) {
      // In-place left-pack of the survivors (done == 0), driven by the same
      // positional flags the step loop wrote.
      active_count = compact_by_flag(active.data(), active.data(),
                                     done.data(), stepped, /*want=*/false);
    }
    std::swap(cur, nxt);
    ++result.rounds;
    if constexpr (kObserved) {
      RoundStats stats;
      stats.round = result.rounds;
      stats.max_rounds = max_rounds;
      stats.n = n;
      stats.active_nodes = static_cast<NodeId>(stepped);
      stats.halted_total = num_halted;
      stats.state_copies = static_cast<std::uint64_t>(stepped) +
                           static_cast<std::uint64_t>(halts_this_round);
      stats.seconds = round_timer.seconds();
      stats.threads = threads;
      stats.chunk_seconds = chunk_seconds;
      obs->on_round_end(stats);
    }
    // Budget check at the round barrier. Runs after the slab merge and
    // buffer swap, so cur is a consistent round: stopping here never tears
    // state.
    if (opts.budget != nullptr &&
        opts.budget->charge(static_cast<std::uint64_t>(stepped)) !=
            BudgetStop::kNone) {
      result.interrupted = true;
      break;
    }
  }
  if (no_alloc) no_alloc->check();
  result.states = std::move(cur == buf_a.data() ? buf_a : buf_b);
  result.all_halted = (num_halted == n);
  if constexpr (kObserved) {
    RunStats stats;
    stats.rounds = result.rounds;
    stats.all_halted = result.all_halted;
    stats.n = n;
    stats.seconds = run_timer.seconds();
    stats.threads = threads;
    obs->on_run_end(stats);
  }
  return result;
}

}  // namespace detail

// Full-control overload: scheduling and thread count live in `options`;
// results are bit-identical across thread counts and schedulers.
template <typename A>
EngineResult<A> run_local(const LocalInput& input, A& algo, int max_rounds,
                          EngineObserver* observer,
                          const EngineOptions& options) {
  if (observer == nullptr) {
    return detail::run_engine<A, detail::NullEngineObserver>(
        input, algo, max_rounds, nullptr, options);
  }
  return detail::run_engine(input, algo, max_rounds, observer, options);
}

// Runs `algo` on `input` for at most `max_rounds` synchronous rounds, using
// default_engine_threads() (1 unless --threads / CKP_THREADS raised it).
template <typename A>
EngineResult<A> run_local(const LocalInput& input, A& algo, int max_rounds) {
  return run_local(input, algo, max_rounds, nullptr, EngineOptions{});
}

// Observed overload: reports per-round progress through `observer`. Passing
// nullptr falls back to the uninstrumented path, so call sites can thread an
// optional observer without branching.
template <typename A>
EngineResult<A> run_local(const LocalInput& input, A& algo, int max_rounds,
                          EngineObserver* observer) {
  return run_local(input, algo, max_rounds, observer, EngineOptions{});
}

// Thread-count overload: `threads` > 0 forces the parallelism of the
// per-round node loop (clamped to n); 0 uses default_engine_threads().
// Results are bit-identical across all thread counts.
template <typename A>
EngineResult<A> run_local(const LocalInput& input, A& algo, int max_rounds,
                          EngineObserver* observer, int threads) {
  EngineOptions options;
  options.threads = threads;
  return run_local(input, algo, max_rounds, observer, options);
}

}  // namespace ckp
