// Shared fixtures and helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/regular.hpp"
#include "graph/trees.hpp"
#include "obs/resource.hpp"
#include "util/rng.hpp"

// TSan's runtime intercepts the operator new/delete family ahead of our
// replacement functions, so the counters sit idle in TSan builds (ASan only
// intercepts malloc/free *beneath* our wrappers, which keeps them live).
// Counter-dependent tests skip themselves there; in plain builds an idle
// counter means the binary failed to link obs/resource.cpp and must FAIL.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CKP_SANITIZER_MAY_OWN_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CKP_SANITIZER_MAY_OWN_ALLOCATOR 1
#endif
#endif
#ifndef CKP_SANITIZER_MAY_OWN_ALLOCATOR
#define CKP_SANITIZER_MAY_OWN_ALLOCATOR 0
#endif

#define CKP_SKIP_IF_COUNTERS_IDLE()                                       \
  do {                                                                    \
    if (CKP_SANITIZER_MAY_OWN_ALLOCATOR && !alloc_counting_active())      \
      GTEST_SKIP() << "sanitizer runtime owns operator new; allocation "  \
                      "counters are idle in this build";                  \
  } while (0)

namespace ckp::testing {

// A labeled menagerie of small graphs covering the structural corner cases.
struct NamedGraph {
  std::string name;
  Graph graph;
};

inline std::vector<NamedGraph> small_graph_zoo() {
  Rng rng(0x500);
  std::vector<NamedGraph> zoo;
  zoo.push_back({"single", Graph::from_edges(1, {})});
  zoo.push_back({"edge", Graph::from_edges(2, {{0, 1}})});
  zoo.push_back({"path16", make_path(16)});
  zoo.push_back({"cycle9", make_cycle(9)});
  zoo.push_back({"cycle10", make_cycle(10)});
  zoo.push_back({"star17", make_star(17)});
  zoo.push_back({"k5", make_complete(5)});
  zoo.push_back({"k33", make_complete_bipartite(3, 3)});
  zoo.push_back({"grid5x7", make_grid(5, 7)});
  zoo.push_back({"hypercube4", make_hypercube(4)});
  zoo.push_back({"er64", make_er(64, 0.08, rng)});
  zoo.push_back({"tree_d3", make_complete_tree(40, 3)});
  zoo.push_back({"tree_d8", make_complete_tree(100, 8)});
  zoo.push_back({"random_tree", make_random_tree(80, 5, rng)});
  zoo.push_back({"prufer", make_prufer_tree(60, rng)});
  zoo.push_back({"caterpillar", make_caterpillar(12, 3)});
  zoo.push_back({"spider", make_spider(5, 6)});
  zoo.push_back({"moebius", make_moebius_ladder(8)});
  zoo.push_back({"regular4", make_random_regular(30, 4, rng)});
  return zoo;
}

inline std::vector<NamedGraph> tree_zoo() {
  Rng rng(0x7ee);
  std::vector<NamedGraph> zoo;
  zoo.push_back({"single", Graph::from_edges(1, {})});
  zoo.push_back({"edge", Graph::from_edges(2, {{0, 1}})});
  zoo.push_back({"path64", make_path(64)});
  zoo.push_back({"star33", make_star(33)});
  zoo.push_back({"complete_d3", make_complete_tree(200, 3)});
  zoo.push_back({"complete_d6", make_complete_tree(300, 6)});
  zoo.push_back({"random_d4", make_random_tree(250, 4, rng)});
  zoo.push_back({"prufer120", make_prufer_tree(120, rng)});
  zoo.push_back({"caterpillar", make_caterpillar(20, 4)});
  zoo.push_back({"spider", make_spider(7, 9)});
  return zoo;
}

}  // namespace ckp::testing
