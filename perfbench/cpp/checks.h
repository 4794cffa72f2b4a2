// Correctness checks computed apart from the program. The benchmark feeds
// in what it published (from its own membership model) and what each
// receiver delivered, in delivery order; the checks never read the
// program's own verdicts and never compare against a stored output.
//
//  * exactly once — each (receiver, message) pair is delivered once, and
//    each message reaches exactly the member set the benchmark's own model
//    says it was addressed to (for a message that raced a membership
//    change, the set before or the set after it);
//  * consistency — for every pair of groups with two or more common
//    receivers, the union of those receivers' delivery orders over the
//    pair's messages is acyclic, as a topological sort of it finds. (The
//    union over *all* receivers is not acyclic in
//    general: the paper sequences only double overlaps, so three groups
//    that pairwise share one receiver may be seen in a cyclic order.)
//  * per-sender FIFO — within each group, each receiver delivers one
//    sender's messages in publish order;
//  * stretch >= 1 — no simulated delivery beats the unicast distance
//    between its sender and receiver, computed with our own Dijkstra.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pubsub/system.h"
#include "topology/graph.h"
#include "util.h"

namespace perfbench {

class Checker {
 public:
  /// Pre-size for `messages` publishes.
  void reserve(std::size_t messages) { msgs_.reserve(messages); }

  /// Intern a member set (host ids, any order); returns its id.
  std::uint32_t add_set(std::vector<std::uint32_t> members);

  /// Record a publish. Keys are dense: the n-th call must pass key n. A
  /// message must reach set `before` or set `after` (equal when no
  /// membership change raced it).
  void sent(std::uint64_t key, std::uint32_t group, std::uint32_t sender,
            std::uint32_t before, std::uint32_t after);

  /// Record one delivery; calls for one receiver come in delivery order.
  void delivered(std::uint32_t receiver, std::uint64_t key,
                 std::uint32_t group, std::uint32_t sender);

  /// Run every check; counts expected and missing deliveries into
  /// `outcome` and records each violation there.
  void finish(Outcome& outcome);

 private:
  struct Msg {
    std::uint32_t group;
    std::uint32_t sender;
    std::uint32_t before;
    std::uint32_t after;
  };
  struct Got {
    std::uint32_t receiver;
    std::uint32_t key;
    std::uint32_t group;
    std::uint32_t sender;
  };
  std::vector<std::vector<std::uint32_t>> sets_;
  std::vector<Msg> msgs_;
  std::vector<Got> got_;
};

/// Stretch >= 1: every simulated latency must be at least the
/// shortest-path distance between the sender's and the receiver's
/// attachment routers, computed here with a plain Dijkstra over the
/// system's topology graph. observe() keeps the lowest latency per router
/// pair, so the Dijkstra runs once per sender router at finish().
class StretchCheck {
 public:
  /// Every delivery in `system.deliveries()[from, end)`.
  void observe(const decseq::pubsub::PubSubSystem& system, std::size_t from);
  void finish(const decseq::topology::Graph& graph, Outcome& outcome);

 private:
  std::unordered_map<std::uint64_t, double> lowest_;  ///< (src, dst) router
};

}  // namespace perfbench
