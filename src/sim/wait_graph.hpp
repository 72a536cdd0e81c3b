// Runtime wait-for graph for deadlock detection in the DES.
//
// Every *indefinite* blocking await in the runtime registers a typed wait
// edge here — who waits, and on what resource (a mailbox identified by
// rank+tag, the cluster barrier, a buffer pool) — and removes it on resume.
// Resource *hold* edges point the other way: which processes can still
// satisfy a resource (the peers that owe a receiver data, the ranks a
// barrier is still waiting for, the ranks holding pool buffers).
//
// Timed waits (recv_until, Timeout-driven polls) never register: they wake
// on their own and must not count as blocked.
//
// Detection model. A cycle alone does not prove a deadlock while messages
// are in flight or third parties can still act, so the graph is
// deliberately conservative: it declares a deadlock only when
//   (a) every live process is blocked on a registered wait edge, and
//   (b) no wait edge is satisfiable — the per-resource probe (wired by the
//       Comm layer) sees no queued value, no handed-but-unresumed value,
//       and no message in flight toward it.
// Under (a)+(b) no future event can wake anyone: timers only wake timed
// waits (which are not registered) and completed processes act no more, so
// the verdict is sound — clean runs can never false-positive. Hold edges
// are then used to *name* the cycle (rank -> resource -> rank -> ...)
// deterministically, starting from the lowest blocked rank and always
// following the lowest-numbered blocked holder.
//
// The check runs incrementally — at every begin_wait and process
// completion, the two transitions that can complete condition (a) — so a
// deadlocked simulation aborts at the instant it wedges instead of idling
// to quiescence behind heartbeat or sampler timers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace pgxd::sim {

// A resource a process can block on. `a`/`b` discriminate instances within
// a kind (mailbox: owner rank + tag; pool/barrier: instance id).
struct WaitResource {
  enum class Kind : std::uint8_t { kMailbox = 0, kBarrier = 1, kPool = 2 };

  Kind kind = Kind::kMailbox;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  static WaitResource mailbox(std::size_t rank, int tag) {
    return WaitResource{Kind::kMailbox, rank,
                        static_cast<std::uint64_t>(static_cast<long long>(tag))};
  }
  static WaitResource barrier(std::uint64_t id = 0) {
    return WaitResource{Kind::kBarrier, id, 0};
  }
  static WaitResource pool(std::uint64_t id = 0) {
    return WaitResource{Kind::kPool, id, 0};
  }

  bool operator==(const WaitResource& o) const {
    return kind == o.kind && a == o.a && b == o.b;
  }
  bool operator<(const WaitResource& o) const {
    if (kind != o.kind) return kind < o.kind;
    if (a != o.a) return a < o.a;
    return b < o.b;
  }

  std::string label() const {
    switch (kind) {
      case Kind::kMailbox:
        return "mailbox(rank " + std::to_string(a) + ", tag " +
               std::to_string(static_cast<long long>(b)) + ")";
      case Kind::kBarrier:
        return "barrier";
      case Kind::kPool:
        return "buffer-pool " + std::to_string(a);
    }
    return "?";
  }
};

class WaitGraph {
 public:
  static constexpr std::size_t kNoToken = static_cast<std::size_t>(-1);

  // Per-kind wait-edge counters plus detection bookkeeping, exported into
  // the SortReport's deadlock block.
  struct Stats {
    std::uint64_t mailbox_waits = 0;
    std::uint64_t barrier_waits = 0;
    std::uint64_t pool_waits = 0;
    std::uint64_t holds_added = 0;
    std::uint64_t deadlock_checks = 0;
    std::uint64_t deadlocks = 0;
    std::size_t max_blocked = 0;  // peak simultaneously-blocked processes
  };

  struct Deadlock {
    // The named cycle, empty when the stuck set closes no hold-edge cycle
    // (hold edges are best-effort annotations). steps[i] waits on
    // resources[i], which is held by steps[i+1 mod n].
    std::vector<std::size_t> cycle_ranks;
    std::vector<WaitResource> cycle_resources;
    std::vector<std::size_t> blocked;  // every blocked rank, ascending
    std::string description;
  };

  // ---- process lifecycle (driven by the cluster harness) -----------------

  // A process is "live" between spawn and done; detection requires every
  // live process to be blocked. Re-spawning a done process (recovery
  // attempts re-run ranks) revives it.
  void process_spawned(std::size_t rank) {
    State& st = state(rank);
    if (st.live) return;
    st.live = true;
    ++live_;
  }

  void process_done(std::size_t rank) {
    PGXD_CHECK_MSG(rank < state_.size() && state_[rank].live,
                   "process_done for a process never spawned");
    state_[rank].live = false;
    PGXD_CHECK(live_ > 0);
    --live_;
    maybe_detect();
  }

  std::size_t live() const { return live_; }
  std::size_t blocked() const { return blocked_; }

  // ---- wait edges --------------------------------------------------------

  // Registers a wait edge and returns a token for end_wait. `annotation`
  // edges describe a secondary reason a process is parked (the sorter's
  // pool-backpressure recv also waits, semantically, on the pool); they
  // enrich cycle naming but never count toward blocked-ness and are never
  // probed for satisfiability.
  std::size_t begin_wait(std::size_t rank, WaitResource res,
                         bool annotation = false) {
    std::size_t token;
    if (!free_.empty()) {
      token = free_.back();
      free_.pop_back();
    } else {
      token = edges_.size();
      edges_.emplace_back();
    }
    Edge& e = edges_[token];
    e.rank = rank;
    e.res = res;
    e.annotation = annotation;
    e.active = true;
    switch (res.kind) {
      case WaitResource::Kind::kMailbox: ++stats_.mailbox_waits; break;
      case WaitResource::Kind::kBarrier: ++stats_.barrier_waits; break;
      case WaitResource::Kind::kPool: ++stats_.pool_waits; break;
    }
    if (!annotation) {
      State& st = state(rank);
      if (st.waits++ == 0) ++blocked_;
      stats_.max_blocked = std::max(stats_.max_blocked, blocked_);
      maybe_detect();
    }
    return token;
  }

  void end_wait(std::size_t token) {
    PGXD_CHECK_MSG(token < edges_.size() && edges_[token].active,
                   "end_wait on an inactive wait edge");
    Edge& e = edges_[token];
    e.active = false;
    if (!e.annotation) {
      State& st = state_[e.rank];
      PGXD_CHECK(st.waits > 0);
      if (--st.waits == 0) {
        PGXD_CHECK(blocked_ > 0);
        --blocked_;
      }
    }
    free_.push_back(token);
  }

  // ---- hold edges (who can satisfy a resource) ---------------------------

  void add_hold(WaitResource res, std::size_t rank) {
    ++holds_[res][rank];
    ++stats_.holds_added;
  }

  // Counted; a no-op below zero so best-effort callers (duplicate chunks,
  // recovery re-sends) can over-remove safely.
  void remove_hold(WaitResource res, std::size_t rank) {
    auto it = holds_.find(res);
    if (it == holds_.end()) return;
    auto rit = it->second.find(rank);
    if (rit == it->second.end()) return;
    if (--rit->second <= 0) it->second.erase(rit);
    if (it->second.empty()) holds_.erase(it);
  }

  void clear_holds(WaitResource res) { holds_.erase(res); }

  // ---- detection ---------------------------------------------------------

  // Satisfiability oracle for non-annotation resources: "can this resource
  // still be satisfied without any currently-blocked process acting?"
  // Wired by the Comm layer (queued + handed + in-flight messages for
  // mailboxes; constant false for barriers). Absent probe => unsatisfiable,
  // which suits unit tests driving the graph directly.
  void set_satisfiable_probe(std::function<bool(const WaitResource&)> probe) {
    probe_ = std::move(probe);
  }

  // Invoked at most once, at the instant a deadlock is established. The
  // cluster harness uses it to stop the simulator mid-run.
  void set_on_deadlock(std::function<void(const Deadlock&)> handler) {
    on_deadlock_ = std::move(handler);
  }

  const std::optional<Deadlock>& deadlock() const { return deadlock_; }
  const Stats& stats() const { return stats_; }

  // Deterministic listing of every active wait edge, sorted by (rank,
  // resource): "rank 2 waits on tag 9 (1 recv); rank 3 waits at the
  // barrier". Annotation edges ride along in brackets.
  std::string report() const {
    std::string out;
    for (const auto& [rank, primary, annots] : sorted_waits()) {
      if (!out.empty()) out += ";";
      out += " rank " + std::to_string(rank) + " waits on ";
      out += wait_phrase(primary);
      for (const WaitResource& a : annots)
        out += " [also blocked on " + a.label() + "]";
    }
    if (out.empty()) out = " (none)";
    return out;
  }

 private:
  struct Edge {
    std::size_t rank = 0;
    WaitResource res{};
    bool annotation = false;
    bool active = false;
  };

  struct State {
    bool live = false;
    int waits = 0;  // active non-annotation edges
  };

  static std::string wait_phrase(const WaitResource& r) {
    // Mailbox edges keep the historical "waits on tag T" phrasing the
    // chaos-suite diagnostics assert on.
    if (r.kind == WaitResource::Kind::kMailbox)
      return "tag " + std::to_string(static_cast<long long>(r.b)) +
             " (1 recv)";
    if (r.kind == WaitResource::Kind::kBarrier) return "the barrier";
    return r.label();
  }

  // (rank, primary wait resource, annotation resources), sorted.
  std::vector<std::tuple<std::size_t, WaitResource, std::vector<WaitResource>>>
  sorted_waits() const {
    std::map<std::size_t,
             std::pair<std::vector<WaitResource>, std::vector<WaitResource>>>
        by_rank;
    for (const Edge& e : edges_) {
      if (!e.active) continue;
      auto& [primaries, annots] = by_rank[e.rank];
      (e.annotation ? annots : primaries).push_back(e.res);
    }
    std::vector<std::tuple<std::size_t, WaitResource, std::vector<WaitResource>>>
        out;
    for (auto& [rank, lists] : by_rank) {
      auto& [primaries, annots] = lists;
      std::sort(primaries.begin(), primaries.end());
      std::sort(annots.begin(), annots.end());
      for (const WaitResource& p : primaries) {
        out.emplace_back(rank, p, annots);
        annots = {};  // annotations print once per rank
      }
    }
    return out;
  }

  // The lowest-numbered active non-annotation resource `rank` waits on,
  // plus its sorted annotations.
  std::optional<WaitResource> primary_wait(std::size_t rank) const {
    std::optional<WaitResource> best;
    for (const Edge& e : edges_)
      if (e.active && !e.annotation && e.rank == rank)
        if (!best || e.res < *best) best = e.res;
    return best;
  }

  std::vector<WaitResource> annotations(std::size_t rank) const {
    std::vector<WaitResource> out;
    for (const Edge& e : edges_)
      if (e.active && e.annotation && e.rank == rank) out.push_back(e.res);
    std::sort(out.begin(), out.end());
    return out;
  }

  bool is_blocked(std::size_t rank) const {
    return rank < state_.size() && state_[rank].waits > 0;
  }

  // The rank's state, growing the table to cover it.
  State& state(std::size_t rank) {
    if (rank >= state_.size()) state_.resize(rank + 1);
    return state_[rank];
  }

  // Lowest blocked holder of `res`, if any.
  std::optional<std::size_t> blocked_holder(const WaitResource& res) const {
    auto it = holds_.find(res);
    if (it == holds_.end()) return std::nullopt;
    for (const auto& [rank, count] : it->second)
      if (count > 0 && is_blocked(rank)) return rank;
    return std::nullopt;
  }

  void maybe_detect() {
    if (deadlock_) return;  // report the first wedge only
    if (live_ == 0 || blocked_ != live_) return;
    ++stats_.deadlock_checks;
    for (const Edge& e : edges_)
      if (e.active && !e.annotation && probe_ && probe_(e.res))
        return;  // a queued/handed/in-flight message can still wake someone
    ++stats_.deadlocks;
    deadlock_ = build_deadlock();
    if (on_deadlock_) on_deadlock_(*deadlock_);
  }

  Deadlock build_deadlock() const {
    Deadlock d;
    for (std::size_t rank = 0; rank < state_.size(); ++rank)
      if (state_[rank].waits > 0) d.blocked.push_back(rank);
    // Walk rank -> primary resource -> lowest blocked holder until a rank
    // repeats; the slice from its first occurrence is the named cycle.
    if (!d.blocked.empty()) {
      std::vector<std::size_t> path_ranks;
      std::vector<WaitResource> path_res;
      std::map<std::size_t, std::size_t> seen_at;
      std::size_t cur = d.blocked.front();
      while (seen_at.find(cur) == seen_at.end()) {
        auto res = primary_wait(cur);
        if (!res) break;
        auto next = blocked_holder(*res);
        if (!next) break;
        seen_at[cur] = path_ranks.size();
        path_ranks.push_back(cur);
        path_res.push_back(*res);
        cur = *next;
      }
      if (auto it = seen_at.find(cur); it != seen_at.end()) {
        d.cycle_ranks.assign(path_ranks.begin() + it->second, path_ranks.end());
        d.cycle_resources.assign(path_res.begin() + it->second, path_res.end());
      }
    }
    d.description = describe(d);
    return d;
  }

  std::string describe(const Deadlock& d) const {
    std::string out;
    if (!d.cycle_ranks.empty()) {
      out = "wait-for cycle:";
      for (std::size_t i = 0; i < d.cycle_ranks.size(); ++i) {
        const std::size_t r = d.cycle_ranks[i];
        out += " rank " + std::to_string(r) + " waits on " +
               d.cycle_resources[i].label();
        for (const WaitResource& a : annotations(r))
          out += " [also blocked on " + a.label() + "]";
        const std::size_t next = d.cycle_ranks[(i + 1) % d.cycle_ranks.size()];
        out += " <- held by rank " + std::to_string(next) + ";";
      }
      out.pop_back();
    } else {
      out = "no satisfiable wait edge remains (no hold edges close a cycle)";
    }
    out += "; blocked receives:" + report();
    return out;
  }

  std::vector<Edge> edges_;
  std::vector<std::size_t> free_;
  std::vector<State> state_;  // indexed by rank
  std::map<WaitResource, std::map<std::size_t, int>> holds_;
  std::size_t live_ = 0;
  std::size_t blocked_ = 0;
  std::function<bool(const WaitResource&)> probe_;
  std::function<void(const Deadlock&)> on_deadlock_;
  std::optional<Deadlock> deadlock_;
  Stats stats_;
};

}  // namespace pgxd::sim
