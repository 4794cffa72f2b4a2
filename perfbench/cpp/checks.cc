#include "checks.h"

#include <algorithm>
#include <limits>
#include <map>
#include <queue>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::uint32_t Checker::add_set(std::vector<std::uint32_t> members) {
  std::sort(members.begin(), members.end());
  sets_.push_back(std::move(members));
  return static_cast<std::uint32_t>(sets_.size() - 1);
}

void Checker::sent(std::uint64_t key, std::uint32_t group,
                   std::uint32_t sender, std::uint32_t before,
                   std::uint32_t after) {
  if (key != msgs_.size()) {
    throw std::logic_error("checker keys must be dense and in order");
  }
  msgs_.push_back({group, sender, before, after});
}

void Checker::delivered(std::uint32_t receiver, std::uint64_t key,
                        std::uint32_t group, std::uint32_t sender) {
  got_.push_back({receiver, static_cast<std::uint32_t>(key), group, sender});
}

void Checker::finish(Outcome& outcome) {
  const std::size_t n = msgs_.size();
  std::uint64_t unknown = 0, mislabelled = 0;

  // Receivers of each message (CSR), in arrival order of the feed.
  std::vector<std::uint32_t> offset(n + 1, 0);
  for (const Got& g : got_) {
    if (g.key >= n) {
      ++unknown;
      continue;
    }
    const Msg& m = msgs_[g.key];
    if (g.group != m.group || g.sender != m.sender) ++mislabelled;
    ++offset[g.key + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  std::vector<std::uint32_t> receivers(offset[n]);
  {
    std::vector<std::uint32_t> fill(offset.begin(), offset.end() - 1);
    for (const Got& g : got_) {
      if (g.key < n) receivers[fill[g.key]++] = g.receiver;
    }
  }

  // Exactly once against the benchmark's own membership model.
  std::uint64_t missing = 0, extra = 0, duplicates = 0, wrong_set = 0;
  std::vector<std::uint32_t> got;
  for (std::size_t k = 0; k < n; ++k) {
    got.assign(receivers.begin() + offset[k], receivers.begin() + offset[k + 1]);
    std::sort(got.begin(), got.end());
    const auto dup_end = std::unique(got.begin(), got.end());
    duplicates += static_cast<std::uint64_t>(got.end() - dup_end);
    got.erase(dup_end, got.end());
    const auto& before = sets_[msgs_[k].before];
    const auto& after = sets_[msgs_[k].after];
    const auto* expected = &before;
    if (got != before && got == after) expected = &after;
    outcome.expected_deliveries += expected->size();
    if (got == *expected) continue;
    ++wrong_set;
    std::vector<std::uint32_t> diff;
    std::set_difference(expected->begin(), expected->end(), got.begin(),
                        got.end(), std::back_inserter(diff));
    missing += diff.size();
    diff.clear();
    std::set_difference(got.begin(), got.end(), expected->begin(),
                        expected->end(), std::back_inserter(diff));
    extra += diff.size();
  }
  outcome.failed_deliveries += missing;
  if (unknown + mislabelled + duplicates + wrong_set > 0) {
    std::ostringstream os;
    os << "exactly-once: " << wrong_set << " message(s) reached the wrong set ("
       << missing << " missing, " << extra << " extra), " << duplicates
       << " duplicate(s), " << unknown << " unknown, " << mislabelled
       << " mislabelled";
    outcome.violate(os.str());
  }

  // Each receiver's delivery sequence, split per group: (position, key).
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      by_stream;  // key: receiver << 32 | group
  std::unordered_map<std::uint32_t, std::uint32_t> position;
  std::uint64_t fifo_violations = 0;
  for (const Got& g : got_) {
    if (g.key >= n) continue;
    const std::uint32_t pos = position[g.receiver]++;
    by_stream[(static_cast<std::uint64_t>(g.receiver) << 32) | g.group]
        .emplace_back(pos, g.key);
  }
  // Per-sender FIFO: within one (receiver, group) stream, one sender's
  // keys (assigned in publish order) must increase.
  for (const auto& [stream, seq] : by_stream) {
    std::unordered_map<std::uint32_t, std::uint32_t> last;
    for (const auto& [pos, key] : seq) {
      auto [it, fresh] = last.try_emplace(msgs_[key].sender, key);
      if (!fresh) {
        if (key < it->second) ++fifo_violations;
        it->second = key;
      }
    }
  }
  if (fifo_violations > 0) {
    outcome.violate("per-sender FIFO: " + std::to_string(fifo_violations) +
                    " delivery(ies) overtook an earlier publish of the same "
                    "sender to the same group");
  }

  // Consistency, as the paper guarantees it: for every pair of groups with
  // two or more common receivers (a group paired with itself included),
  // the union of those receivers' delivery orders over the pair's messages
  // must be acyclic. Each receiver's projection adds an edge from every
  // key to the next one it delivered, and a topological sort (Kahn) of
  // the union fails exactly when it has a cycle. A receiver that joined or
  // left one of the groups delivered only part of the pair's messages; the
  // union still orders that part against every other receiver's.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> groups_of;
  for (const auto& [stream, seq] : by_stream) {
    groups_of[static_cast<std::uint32_t>(stream >> 32)].push_back(
        static_cast<std::uint32_t>(stream));
  }
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::uint32_t>>
      pair_receivers;
  for (auto& [receiver, groups] : groups_of) {
    std::sort(groups.begin(), groups.end());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      for (std::size_t j = i; j < groups.size(); ++j) {
        pair_receivers[{groups[i], groups[j]}].push_back(receiver);
      }
    }
  }
  std::vector<std::uint32_t> projection;
  auto project = [&](std::uint32_t receiver, std::uint32_t ga,
                     std::uint32_t gb, std::vector<std::uint32_t>& out) {
    out.clear();
    const auto& a = by_stream[(static_cast<std::uint64_t>(receiver) << 32) | ga];
    if (ga == gb) {
      for (const auto& [pos, key] : a) out.push_back(key);
      return;
    }
    const auto& b = by_stream[(static_cast<std::uint64_t>(receiver) << 32) | gb];
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i].first < b[j].first)) {
        out.push_back(a[i++].second);
      } else {
        out.push_back(b[j++].second);
      }
    }
  };
  std::vector<std::int32_t> node_of(n, -1);  // key -> node of the pair's graph
  std::vector<std::uint32_t> key_of;          // node -> key
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::vector<std::uint32_t> indegree, first_edge, targets, ready;
  std::uint64_t pairs_checked = 0, cyclic_pairs = 0;
  for (const auto& [pair, receivers] : pair_receivers) {
    if (receivers.size() < 2) continue;
    ++pairs_checked;
    key_of.clear();
    edges.clear();
    for (const std::uint32_t receiver : receivers) {
      project(receiver, pair.first, pair.second, projection);
      std::int32_t prev = -1;
      for (const std::uint32_t key : projection) {
        if (node_of[key] < 0) {
          node_of[key] = static_cast<std::int32_t>(key_of.size());
          key_of.push_back(key);
        }
        if (prev >= 0) {
          edges.emplace_back(static_cast<std::uint32_t>(prev),
                             static_cast<std::uint32_t>(node_of[key]));
        }
        prev = node_of[key];
      }
    }
    const std::size_t nodes = key_of.size();
    indegree.assign(nodes, 0);
    first_edge.assign(nodes + 1, 0);
    for (const auto& [from, to] : edges) {
      ++first_edge[from + 1];
      ++indegree[to];
    }
    for (std::size_t v = 0; v < nodes; ++v) first_edge[v + 1] += first_edge[v];
    targets.resize(edges.size());
    {
      std::vector<std::uint32_t> fill(first_edge.begin(), first_edge.end() - 1);
      for (const auto& [from, to] : edges) targets[fill[from]++] = to;
    }
    ready.clear();
    for (std::uint32_t v = 0; v < nodes; ++v) {
      if (indegree[v] == 0) ready.push_back(v);
    }
    std::size_t sorted = 0;
    while (!ready.empty()) {
      const std::uint32_t v = ready.back();
      ready.pop_back();
      ++sorted;
      for (std::uint32_t e = first_edge[v]; e < first_edge[v + 1]; ++e) {
        if (--indegree[targets[e]] == 0) ready.push_back(targets[e]);
      }
    }
    if (sorted < nodes) ++cyclic_pairs;
    for (const std::uint32_t key : key_of) node_of[key] = -1;
  }
  if (cyclic_pairs > 0) {
    outcome.violate("consistency: the receivers' delivery orders of " +
                    std::to_string(cyclic_pairs) + " of " +
                    std::to_string(pairs_checked) +
                    " overlapping group pair(s) form a cycle");
  }
}

void StretchCheck::observe(const decseq::pubsub::PubSubSystem& system,
                           std::size_t from) {
  const auto& log = system.deliveries();
  const decseq::topology::HostMap& hosts = system.hosts();
  for (std::size_t i = from; i < log.size(); ++i) {
    const auto& d = log[i];
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(hosts.router_of(d.sender).value()) << 32) |
        hosts.router_of(d.receiver).value();
    const double latency = d.delivered_at - d.sent_at;
    auto [it, fresh] = lowest_.try_emplace(pair, latency);
    if (!fresh) it->second = std::min(it->second, latency);
  }
}

void StretchCheck::finish(const decseq::topology::Graph& graph,
                          Outcome& outcome) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::uint64_t, double>> pairs(lowest_.begin(),
                                                      lowest_.end());
  std::sort(pairs.begin(), pairs.end());
  std::vector<double> dist;
  std::uint64_t below = 0;
  double worst = kInf;
  std::uint64_t source = ~0ULL;
  for (const auto& [pair, latency] : pairs) {
    if ((pair >> 32) != source) {
      source = pair >> 32;
      dist.assign(graph.num_routers(), kInf);
      using Item = std::pair<double, std::uint32_t>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
      dist[source] = 0.0;
      heap.push({0.0, static_cast<std::uint32_t>(source)});
      while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (d > dist[u]) continue;
        for (const auto& e : graph.neighbors(decseq::RouterId(u))) {
          const double nd = d + e.delay_ms;
          if (nd < dist[e.to.value()]) {
            dist[e.to.value()] = nd;
            heap.push({nd, e.to.value()});
          }
        }
      }
    }
    const double unicast = dist[pair & 0xffffffffu];
    if (latency < unicast * (1.0 - 1e-9) - 1e-9) {
      ++below;
      worst = std::min(worst, unicast > 0.0 ? latency / unicast : 0.0);
    }
  }
  if (below > 0) {
    std::ostringstream os;
    os << "stretch: " << below << " sender/receiver pair(s) delivered faster "
       << "than unicast (lowest stretch " << worst << ")";
    outcome.violate(os.str());
  }
}

}  // namespace perfbench
