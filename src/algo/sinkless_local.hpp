// Sinkless orientation on the strict synchronous engine (RandLOCAL).
//
// The phase-composed claim+repair solver in core/sinkless.cpp charges rounds
// through a ledger; this is the engine-native counterpart, written as a
// per-node program with a single-word bit-field state. It targets the
// paper's setting: Δ-regular (more generally min-degree >= 2) graphs that
// come with a proper Δ-edge coloring (input.edge_labels), e.g. the
// union-of-matchings bipartite instances of graph/regular.cpp where the
// matching index is the color.
//
// Protocol (one engine round per iteration):
//
//   * An unsatisfied node always has a pending claim on one incident edge,
//     identified by its *edge color* — colors are proper, so "my claim" is
//     unambiguous to both endpoints without IDs. Each round it resolves the
//     claim against the previous-round state of the neighbor across that
//     edge: it loses if that neighbor already owns the edge (is satisfied
//     and oriented through it) or claimed the same edge with a >= coin draw
//     (ties lose both ways, so at most one endpoint ever wins an edge).
//     Winners become satisfied — their out-edge is the claimed edge, stamped
//     with the winning round as a generation. Losers draw one fresh 64-bit
//     coin and re-claim uniformly among incident edges that are not
//     *reserved* (a reserved edge is the out-edge of an already-satisfied
//     neighbor — claiming it could never succeed and could create a sink).
//   * If every incident edge is reserved the node is deadlocked: all its
//     neighbors point at it. It then *steals* a uniformly random incident
//     edge — declares itself satisfied on it with the current round as
//     generation. The victim (satisfied, same color, strictly smaller
//     generation) notices across the shared edge, unsatisfies itself, and
//     rejoins the claimers; since the victim's other edges cannot all be
//     reserved by nodes pointing at the thief, the displacement walks
//     toward slack and dies out quickly in practice.
//   * A satisfied node halts once its entire neighborhood is satisfied —
//     then no neighbor can initiate a steal against it. A steal *cascade*
//     can in principle unsatisfy a neighbor later and re-victimize a halted
//     node; the post-run consistency check below detects this (the run
//     reports completed = false) rather than returning a silently wrong
//     orientation, keeping the algorithm Las Vegas.
//
// Every claiming node consumes exactly one 64-bit draw per round (init
// included), a deterministic function of its own round history — which is
// what makes results bit-identical across threads and schedulers.
#pragma once

#include <cstdint>

#include "lcl/verify_orientation.hpp"
#include "local/context.hpp"
#include "local/engine.hpp"

namespace ckp {

struct SinklessLocalResult {
  Orientation orient;     // ±1 per edge; unclaimed edges default to +1
  int rounds = 0;
  bool completed = true;  // all nodes own a consistent out-edge and halted
  NodeId unsatisfied = 0;  // nodes left without an out-edge (0 if completed)
  std::uint64_t engine_bytes = 0;  // EngineResult::engine_bytes of the run
};

// Runs the engine-native sinkless orientation. Requires RandLOCAL input
// (no ids), min degree >= 2, and input.edge_labels holding a proper edge
// coloring with colors in [0, 256), and `max_rounds` >= 1. Verified on
// success via verify_sinkless_orientation.
SinklessLocalResult sinkless_local(const LocalInput& input,
                                   int max_rounds = 1 << 14,
                                   const EngineOptions& options = {});

}  // namespace ckp
