#include "core/cycle_lcl.hpp"

#include <algorithm>
#include <numeric>

#include "algo/mis_deterministic.hpp"
#include "core/dichotomy.hpp"
#include "graph/power.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace ckp {
namespace {

// Grams are (w-1)-tuples of labels encoded base num_labels.
int gram_count(const CycleLcl& lcl) {
  return static_cast<int>(
      ipow_sat(static_cast<std::uint64_t>(lcl.num_labels),
               static_cast<unsigned>(lcl.window - 1)));
}

std::vector<int> gram_labels(const CycleLcl& lcl, int gram) {
  std::vector<int> out(static_cast<std::size_t>(lcl.window - 1));
  for (int i = lcl.window - 2; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = gram % lcl.num_labels;
    gram /= lcl.num_labels;
  }
  return out;
}

// The automaton: edge gram -> gram' labeled by the appended label.
struct Automaton {
  int grams = 0;
  // adjacency[g] = list of (next gram, appended label).
  std::vector<std::vector<std::pair<int, int>>> adjacency;
};

Automaton build_automaton(const CycleLcl& lcl) {
  Automaton a;
  a.grams = gram_count(lcl);
  a.adjacency.resize(static_cast<std::size_t>(a.grams));
  for (const auto& win : lcl.allowed) {
    int from = 0;
    int to = 0;
    for (int i = 0; i + 1 < lcl.window; ++i) {
      from = from * lcl.num_labels + win[static_cast<std::size_t>(i)];
      to = to * lcl.num_labels + win[static_cast<std::size_t>(i + 1)];
    }
    a.adjacency[static_cast<std::size_t>(from)].emplace_back(
        to, win.back());
  }
  return a;
}

// Tarjan-free SCC via Kosaraju (small automata).
std::vector<int> scc_labels(const Automaton& a) {
  const int n = a.grams;
  std::vector<std::vector<int>> fwd(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> rev(static_cast<std::size_t>(n));
  for (int g = 0; g < n; ++g) {
    for (const auto& [to, label] : a.adjacency[static_cast<std::size_t>(g)]) {
      fwd[static_cast<std::size_t>(g)].push_back(to);
      rev[static_cast<std::size_t>(to)].push_back(g);
    }
  }
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> order;
  // Iterative DFS for finish order.
  for (int s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    std::vector<std::pair<int, std::size_t>> stack{{s, 0}};
    seen[static_cast<std::size_t>(s)] = 1;
    while (!stack.empty()) {
      auto& [v, idx] = stack.back();
      if (idx < fwd[static_cast<std::size_t>(v)].size()) {
        const int u = fwd[static_cast<std::size_t>(v)][idx++];
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          stack.emplace_back(u, 0);
        }
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  std::vector<int> comp(static_cast<std::size_t>(n), -1);
  int comps = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (comp[static_cast<std::size_t>(*it)] != -1) continue;
    std::vector<int> stack{*it};
    comp[static_cast<std::size_t>(*it)] = comps;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int u : rev[static_cast<std::size_t>(v)]) {
        if (comp[static_cast<std::size_t>(u)] == -1) {
          comp[static_cast<std::size_t>(u)] = comps;
          stack.push_back(u);
        }
      }
    }
    ++comps;
  }
  return comp;
}

// Period (gcd of cycle lengths) of the subgraph induced by one SCC; 0 if the
// component has no edge inside it.
int scc_period(const Automaton& a, const std::vector<int>& comp, int target) {
  int root = -1;
  for (int g = 0; g < a.grams; ++g) {
    if (comp[static_cast<std::size_t>(g)] == target) {
      root = g;
      break;
    }
  }
  CKP_CHECK(root >= 0);
  std::vector<int> level(static_cast<std::size_t>(a.grams), -1);
  level[static_cast<std::size_t>(root)] = 0;
  std::vector<int> queue{root};
  int period = 0;
  bool has_internal_edge = false;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    for (const auto& [u, label] : a.adjacency[static_cast<std::size_t>(v)]) {
      if (comp[static_cast<std::size_t>(u)] != target) continue;
      has_internal_edge = true;
      if (level[static_cast<std::size_t>(u)] < 0) {
        level[static_cast<std::size_t>(u)] = level[static_cast<std::size_t>(v)] + 1;
        queue.push_back(u);
      } else {
        const int diff = level[static_cast<std::size_t>(v)] + 1 -
                         level[static_cast<std::size_t>(u)];
        period = std::gcd(period, std::abs(diff));
      }
    }
  }
  if (!has_internal_edge) return 0;
  return period == 0 ? 0 : period;
}

// Realizable walk lengths q -> q, as a boolean table up to max_len.
std::vector<char> closed_walk_lengths(const Automaton& a, int q, int max_len) {
  std::vector<char> reach(static_cast<std::size_t>(a.grams), 0);
  std::vector<char> lengths(static_cast<std::size_t>(max_len) + 1, 0);
  reach[static_cast<std::size_t>(q)] = 1;
  for (int t = 1; t <= max_len; ++t) {
    std::vector<char> next(static_cast<std::size_t>(a.grams), 0);
    for (int g = 0; g < a.grams; ++g) {
      if (!reach[static_cast<std::size_t>(g)]) continue;
      for (const auto& [to, label] : a.adjacency[static_cast<std::size_t>(g)]) {
        next[static_cast<std::size_t>(to)] = 1;
      }
    }
    reach = std::move(next);
    lengths[static_cast<std::size_t>(t)] = reach[static_cast<std::size_t>(q)];
  }
  return lengths;
}

// Reconstructs a q -> q walk of exactly `len` steps; returns the appended
// labels (len of them). Empty optional-equivalent: CHECK-fails if absent.
std::vector<int> reconstruct_walk(const Automaton& a, int q, int len) {
  // dp[t][g]: reachable from q in t steps.
  std::vector<std::vector<char>> dp(
      static_cast<std::size_t>(len) + 1,
      std::vector<char>(static_cast<std::size_t>(a.grams), 0));
  dp[0][static_cast<std::size_t>(q)] = 1;
  for (int t = 1; t <= len; ++t) {
    for (int g = 0; g < a.grams; ++g) {
      if (!dp[static_cast<std::size_t>(t - 1)][static_cast<std::size_t>(g)]) continue;
      for (const auto& [to, label] : a.adjacency[static_cast<std::size_t>(g)]) {
        dp[static_cast<std::size_t>(t)][static_cast<std::size_t>(to)] = 1;
      }
    }
  }
  CKP_CHECK_MSG(dp[static_cast<std::size_t>(len)][static_cast<std::size_t>(q)],
                "no closed walk of length " << len);
  // Backtrack from the end.
  std::vector<int> labels(static_cast<std::size_t>(len));
  int current = q;
  for (int t = len; t >= 1; --t) {
    bool found = false;
    for (int g = 0; g < a.grams && !found; ++g) {
      if (!dp[static_cast<std::size_t>(t - 1)][static_cast<std::size_t>(g)]) continue;
      for (const auto& [to, label] : a.adjacency[static_cast<std::size_t>(g)]) {
        if (to == current) {
          labels[static_cast<std::size_t>(t - 1)] = label;
          current = g;
          found = true;
          break;
        }
      }
    }
    CKP_CHECK(found);
  }
  return labels;
}

// Extracts a cyclic traversal order of the cycle graph.
std::vector<NodeId> cycle_order(const Graph& g) {
  CKP_CHECK(is_cycle(g));
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.num_nodes()));
  NodeId prev = kInvalidNode;
  NodeId cur = 0;
  do {
    order.push_back(cur);
    const auto nbrs = g.neighbors(cur);
    const NodeId next = (nbrs[0] == prev) ? nbrs[1] : nbrs[0];
    prev = cur;
    cur = next;
  } while (cur != 0);
  return order;
}

}  // namespace

void CycleLcl::validate() const {
  CKP_CHECK(num_labels >= 1);
  CKP_CHECK(window >= 2);
  CKP_CHECK_MSG(ipow_sat(static_cast<std::uint64_t>(num_labels),
                         static_cast<unsigned>(window - 1)) <= 4096,
                "automaton too large");
  for (const auto& win : allowed) {
    CKP_CHECK(win.size() == static_cast<std::size_t>(window));
    for (int l : win) CKP_CHECK(l >= 0 && l < num_labels);
  }
}

std::string to_string(CycleComplexity c) {
  switch (c) {
    case CycleComplexity::kUnsolvable:
      return "unsolvable";
    case CycleComplexity::kConstant:
      return "O(1)";
    case CycleComplexity::kLogStar:
      return "Θ(log* n)";
    case CycleComplexity::kGlobal:
      return "Θ(n)";
  }
  return "?";
}

CycleClassification classify_cycle_lcl(const CycleLcl& lcl) {
  lcl.validate();
  CycleClassification out;
  const Automaton a = build_automaton(lcl);

  // Constant: a monochromatic window.
  for (int l = 0; l < lcl.num_labels; ++l) {
    const std::vector<int> mono(static_cast<std::size_t>(lcl.window), l);
    if (std::find(lcl.allowed.begin(), lcl.allowed.end(), mono) !=
        lcl.allowed.end()) {
      out.complexity = CycleComplexity::kConstant;
      out.period = 1;
      // A self-loop gram is trivially flexible.
      int gram = 0;
      for (int i = 0; i + 1 < lcl.window; ++i) gram = gram * lcl.num_labels + l;
      out.flexible_gram = gram;
      out.flexibility_onset = 1;
      return out;
    }
  }

  const auto comp = scc_labels(a);
  int comps = 0;
  for (int c : comp) comps = std::max(comps, c + 1);
  int best_period = 0;
  int flexible_component = -1;
  for (int c = 0; c < comps; ++c) {
    const int p = scc_period(a, comp, c);
    if (p == 0) continue;  // acyclic component
    if (p == 1 && flexible_component < 0) flexible_component = c;
    best_period = best_period == 0 ? p : std::gcd(best_period, p);
  }
  if (best_period == 0) {
    out.complexity = CycleComplexity::kUnsolvable;
    return out;
  }
  if (flexible_component >= 0) {
    out.complexity = CycleComplexity::kLogStar;
    for (int g = 0; g < a.grams; ++g) {
      if (comp[static_cast<std::size_t>(g)] == flexible_component) {
        out.flexible_gram = g;
        break;
      }
    }
    // Onset: smallest L0 with every length in [L0, Lmax] realizable.
    const int max_len = 4 * a.grams * a.grams + 4 * lcl.window + 8;
    const auto lengths = closed_walk_lengths(a, out.flexible_gram, max_len);
    int l0 = max_len + 1;
    for (int t = max_len; t >= 1 && lengths[static_cast<std::size_t>(t)]; --t) {
      l0 = t;
    }
    CKP_CHECK_MSG(l0 <= 2 * a.grams * a.grams + 2,
                  "aperiodic component with unexpectedly late onset");
    out.flexibility_onset = l0;
    out.period = 1;
    return out;
  }
  out.complexity = CycleComplexity::kGlobal;
  out.period = best_period;
  return out;
}

bool cycle_labeling_valid(const CycleLcl& lcl, const std::vector<int>& labels) {
  lcl.validate();
  const std::size_t n = labels.size();
  if (n < static_cast<std::size_t>(lcl.window)) return false;
  auto direction_ok = [&](bool reversed) {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<int> win(static_cast<std::size_t>(lcl.window));
      for (int j = 0; j < lcl.window; ++j) {
        const std::size_t idx =
            reversed ? (i + n - static_cast<std::size_t>(j) % n) % n
                     : (i + static_cast<std::size_t>(j)) % n;
        win[static_cast<std::size_t>(j)] = labels[idx % n];
      }
      if (std::find(lcl.allowed.begin(), lcl.allowed.end(), win) ==
          lcl.allowed.end()) {
        return false;
      }
    }
    return true;
  };
  return direction_ok(false) || direction_ok(true);
}

CycleSolveResult solve_cycle_lcl(const CycleLcl& lcl, const Graph& g,
                                 const std::vector<std::uint64_t>& ids,
                                 RoundLedger& ledger) {
  CKP_CHECK(is_cycle(g));
  const NodeId n = g.num_nodes();
  CKP_CHECK(ids.size() == static_cast<std::size_t>(n));
  CKP_CHECK(n >= lcl.window);
  const int start_rounds = ledger.rounds();
  const auto classification = classify_cycle_lcl(lcl);
  const Automaton a = build_automaton(lcl);
  const auto order = cycle_order(g);

  CycleSolveResult out;
  out.labels.assign(static_cast<std::size_t>(n), -1);
  auto set_pos = [&](std::size_t pos, int label) {
    out.labels[static_cast<std::size_t>(order[pos % order.size()])] = label;
  };

  switch (classification.complexity) {
    case CycleComplexity::kUnsolvable:
      out.feasible = false;
      return out;

    case CycleComplexity::kConstant: {
      const auto q = gram_labels(lcl, classification.flexible_gram);
      for (NodeId v = 0; v < n; ++v) {
        out.labels[static_cast<std::size_t>(v)] = q[0];
      }
      out.rounds = 0;
      break;
    }

    case CycleComplexity::kLogStar: {
      // Anchors: MIS of the m-th power, m >= max(onset, window) so that
      // every inter-anchor gap is a realizable walk length and anchor grams
      // do not overlap.
      const int m =
          std::max({classification.flexibility_onset, lcl.window, 2});
      CKP_CHECK(n >= 2 * m + 2);  // room for at least two anchors
      const Graph power = power_graph(g, m);
      RoundLedger inner;
      const auto mis =
          mis_deterministic(power, ids, power.max_degree(), inner);
      ledger.charge(inner.rounds() * m + m);
      std::vector<std::size_t> anchors;
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        if (mis.in_set[static_cast<std::size_t>(order[pos])]) {
          anchors.push_back(pos);
        }
      }
      CKP_CHECK(anchors.size() >= 2);
      const int q = classification.flexible_gram;
      const auto q_labels = gram_labels(lcl, q);
      for (std::size_t pos : anchors) {
        for (int i = 0; i + 1 < lcl.window; ++i) {
          set_pos(pos + static_cast<std::size_t>(i),
                  q_labels[static_cast<std::size_t>(i)]);
        }
      }
      for (std::size_t i = 0; i < anchors.size(); ++i) {
        const std::size_t from = anchors[i];
        const std::size_t to = anchors[(i + 1) % anchors.size()];
        const int gap = static_cast<int>((to + order.size() - from) %
                                         order.size());
        CKP_CHECK(gap >= classification.flexibility_onset);
        const auto walk = reconstruct_walk(a, q, gap);
        for (int s = 0; s < gap; ++s) {
          set_pos(from + static_cast<std::size_t>(lcl.window - 1) +
                      static_cast<std::size_t>(s),
                  walk[static_cast<std::size_t>(s)]);
        }
      }
      ledger.charge(2 * m + lcl.window);  // segment fill exchanges
      out.rounds = ledger.rounds() - start_rounds;
      break;
    }

    case CycleComplexity::kGlobal: {
      // Global coordination: find a closed walk of exactly length n from
      // some gram; every vertex must see the whole cycle.
      bool found = false;
      for (int q = 0; q < a.grams && !found; ++q) {
        const auto lengths = closed_walk_lengths(a, q, static_cast<int>(n));
        if (!lengths[static_cast<std::size_t>(n)]) continue;
        const auto walk = reconstruct_walk(a, q, static_cast<int>(n));
        const auto q_labels = gram_labels(lcl, q);
        // The walk's appended labels, shifted so that position 0..w-2 holds
        // the start gram: label at position (w-1+s) mod n = walk[s].
        for (int i = 0; i + 1 < lcl.window; ++i) {
          set_pos(static_cast<std::size_t>(i), q_labels[static_cast<std::size_t>(i)]);
        }
        for (int s = 0; s < static_cast<int>(n) - (lcl.window - 1); ++s) {
          set_pos(static_cast<std::size_t>(lcl.window - 1 + s),
                  walk[static_cast<std::size_t>(s)]);
        }
        found = true;
      }
      if (!found) {
        out.feasible = false;  // e.g. 2-coloring an odd cycle
        return out;
      }
      ledger.charge(static_cast<int>(
          ceil_div(static_cast<std::uint64_t>(n), 2)));
      out.rounds = ledger.rounds() - start_rounds;
      break;
    }
  }
  for (int l : out.labels) CKP_CHECK(l >= 0);
  CKP_DCHECK([&] {
    std::vector<int> around(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      around[i] = out.labels[static_cast<std::size_t>(order[i])];
    }
    return cycle_labeling_valid(lcl, around);
  }());
  return out;
}

CycleLcl mis_cycle_lcl() {
  CycleLcl p;
  p.num_labels = 2;
  p.window = 3;
  p.allowed = {{0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {1, 0, 1}};
  p.validate();
  return p;
}

CycleLcl proper_coloring_cycle_lcl(int k) {
  CKP_CHECK(k >= 2);
  CycleLcl p;
  p.num_labels = k;
  p.window = 2;
  for (int x = 0; x < k; ++x) {
    for (int y = 0; y < k; ++y) {
      if (x != y) p.allowed.push_back({x, y});
    }
  }
  p.validate();
  return p;
}

CycleLcl maximal_matching_cycle_lcl() {
  // Labels: 0 = matched with predecessor (L), 1 = matched with successor
  // (R), 2 = unmatched (U). Allowed adjacencies: RL, LR, LU, UR.
  CycleLcl p;
  p.num_labels = 3;
  p.window = 2;
  p.allowed = {{1, 0}, {0, 1}, {0, 2}, {2, 1}};
  p.validate();
  return p;
}

CycleLcl unsolvable_cycle_lcl() {
  CycleLcl p;
  p.num_labels = 2;
  p.window = 2;
  p.allowed = {{0, 1}};  // the automaton 0 -> 1 has no cycle
  p.validate();
  return p;
}

CycleLcl all_equal_cycle_lcl() {
  CycleLcl p;
  p.num_labels = 2;
  p.window = 2;
  p.allowed = {{0, 0}};
  p.validate();
  return p;
}

}  // namespace ckp
