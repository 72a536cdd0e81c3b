// Communication manager — the runtime's message layer over the simulated
// fabric, mirroring PGX.D's communication manager (Sec. III).
//
// Semantics the sorting algorithm relies on:
//   * post() is asynchronous: the sender keeps computing while the transfer
//     proceeds as its own simulation process ("reading/writing data from/to
//     the remote processors asynchronously").
//   * In the default (unreliable) mode, per (src, dst) message order is
//     FIFO (TX and RX ports are FIFO and fabric latency is constant).
//   * recv(rank, tag) waits only for the next message of that tag — there
//     is no global barrier hidden in the receive path.
//
// Reliable mode (ReliableConfig::enabled) layers an ack/retry/backoff
// protocol on top of a faulty fabric (net::FaultConfig):
//   * every remote message is stamped with a per-(src,dst) sequence number;
//   * the receiver acks every arriving data frame (including duplicates —
//     a duplicate usually means the previous ack was lost) and suppresses
//     redelivery through a per-pair dedup window, so the mailbox sees each
//     message exactly once;
//   * the sender retransmits on an RTO timer with capped exponential
//     backoff until acked (sim::Timeout — the ack handler cancels the
//     pending timer, so a completed message leaves no stray clock events);
//   * a message that exhausts its retry budget aborts the run loudly.
// Retransmission breaks per-pair FIFO ordering — engines running over a
// lossy fabric must tolerate reordering (the sort's data chunks carry
// explicit offsets for exactly this reason).
//
// The payload type is a template parameter; each engine (the PGX.D sort,
// the Spark baseline, the comparator baselines) instantiates Comm with its
// own message variant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "net/frame.hpp"
#include "runtime/errors.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/timeout.hpp"
#include "sim/trace.hpp"
#include "sim/wait_graph.hpp"

namespace pgxd::rt {

// NOTE: every message/payload type in this codebase carries user-declared
// constructors instead of being a plain aggregate. This is load-bearing:
// GCC 12 miscompiles aggregate-initialized temporaries that live across a
// co_await suspension (the temporary and its moved-to frame copy end up
// sharing ownership — double free). A user-declared constructor routes the
// temporary through normal init paths, which are handled correctly. See
// tests/runtime_test.cpp: Comm.PrvaluePayloadRegression.
//
// A related GCC 12 limitation: a temporary built from a braced
// initializer-list (e.g. `std::vector<int>{1, 2}`) inside a co_await
// full-expression fails to compile ("array used as initializer") because
// the list's backing array cannot be spilled to the coroutine frame — name
// such payloads in a local first.
template <typename Payload>
struct Message {
  std::size_t src = 0;
  int tag = 0;
  std::uint64_t bytes = 0;  // modeled wire size
  // Trace context: sender-assigned span id + transmission attempt, stamped
  // by Comm on every remote message (local loopbacks stay unstamped).
  net::FrameHeader hdr{};
  Payload payload{};

  Message() = default;
  Message(std::size_t src_in, int tag_in, std::uint64_t bytes_in, Payload p)
      : src(src_in), tag(tag_in), bytes(bytes_in), payload(std::move(p)) {}
};

// Reliable-delivery protocol parameters.
struct ReliableConfig {
  bool enabled = false;
  // First retransmission timeout; doubles per attempt up to max_rto.
  sim::SimTime initial_rto = 1 * sim::kMillisecond;
  sim::SimTime max_rto = 20 * sim::kMillisecond;
  // Transmissions (first + retries) before the run aborts.
  int max_attempts = 40;
  // Modeled wire size of an ack frame.
  std::uint64_t ack_wire_bytes = 16;
  // Each armed RTO is stretched by uniform [0, backoff_jitter * rto),
  // drawn from a dedicated seeded stream. Without jitter, the doubling
  // backoff phase-locks with periodic fault windows (every retry of a
  // message can land inside the same blackout, forever); with it, retries
  // walk out of the window. Deterministic: same seed, same jitter.
  double backoff_jitter = 0.5;
  std::uint64_t seed = 0xac4;
  // Crash tolerance: when true, a message that exhausts its retry budget —
  // or whose destination the failure detector suspects dead — gives up
  // with a PeerUnreachable outcome (awaited sends throw
  // PeerUnreachableError, posts drop silently) instead of aborting the
  // whole run, and the destination is marked unreachable so later sends
  // fail at the source without burning a retry ladder each. Off by
  // default: on a merely-lossy fabric, budget exhaustion is a
  // configuration bug and should stay loud.
  bool fail_fast = false;
};

struct ReliableStats {
  std::uint64_t frames_sent = 0;  // first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t retransmitted_bytes = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;  // ack frames that survived the fabric
  std::uint64_t duplicates_suppressed = 0;  // receiver-side dedup hits
  // Fail-fast outcomes: sends abandoned because the destination exhausted
  // its retry budget, was suspected dead, or was already marked
  // unreachable (counted once per abandoned message).
  std::uint64_t peer_unreachable = 0;
};

template <typename Payload>
class Comm {
 public:
  using Msg = Message<Payload>;

  Comm(sim::Simulator& sim, net::Fabric& fabric, ReliableConfig rcfg = {})
      : sim_(sim), fabric_(fabric), machines_(fabric.machines()), rcfg_(rcfg),
        barrier_(sim, fabric.machines()), mailboxes_(fabric.machines()),
        inflight_(reliable_pairs()), next_seq_(reliable_pairs(), 0),
        dedup_(reliable_pairs()), unreachable_(fabric.machines(), 0),
        inflight_to_(fabric.machines()), at_barrier_(fabric.machines(), 0) {
    PGXD_CHECK(rcfg_.initial_rto > 0 && rcfg_.max_rto >= rcfg_.initial_rto);
    PGXD_CHECK(rcfg_.max_attempts >= 1);
    PGXD_CHECK(rcfg_.backoff_jitter >= 0.0);
    backoff_rng_ = Rng(rcfg_.seed);
  }

  std::size_t machines() const { return machines_; }
  sim::Simulator& simulator() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  const net::Fabric& fabric() const { return fabric_; }
  const ReliableConfig& reliable_config() const { return rcfg_; }
  const ReliableStats& reliable_stats() const { return rstats_; }

  // Telemetry export: the reliable-delivery protocol counters as
  // comm.reliable.* (zeros when the reliable layer is off — the schema
  // stays stable either way). Comm-wide, not per-rank: the ack/retry state
  // machine is shared across the cluster's pairs.
  void export_metrics(obs::MetricsRegistry& reg) const {
    reg.counter("comm.reliable.frames_sent").inc(rstats_.frames_sent);
    reg.counter("comm.reliable.retransmits").inc(rstats_.retransmits);
    reg.counter("comm.reliable.retransmitted_bytes")
        .inc(rstats_.retransmitted_bytes);
    reg.counter("comm.reliable.acks_sent").inc(rstats_.acks_sent);
    reg.counter("comm.reliable.acks_received").inc(rstats_.acks_received);
    reg.counter("comm.reliable.duplicates_suppressed")
        .inc(rstats_.duplicates_suppressed);
    reg.counter("comm.reliable.peer_unreachable").inc(rstats_.peer_unreachable);
  }

  // Failure-detector integration: the hook answers "does `observer`
  // currently suspect `peer` crashed?". Consulted by fail-fast retransmit
  // loops so a send to a suspected-dead peer gives up at the next retry
  // instead of riding out the whole budget.
  void set_suspicion_hook(
      std::function<bool(std::size_t, std::size_t)> hook) {
    suspects_ = std::move(hook);
  }

  // Causal tracing: when a trace is installed, every physical frame that
  // lands on a receiver (data frames, retransmitted and duplicated copies,
  // ack frames) records a sim::Trace::Flow edge carrying the sender's span
  // id. nullptr detaches; recording costs one branch when detached.
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  // Deadlock analysis: when a wait-for graph is attached, every blocking
  // recv registers a mailbox wait edge, barrier(rank) registers a barrier
  // wait edge plus the not-yet-arrived hold set, and the graph's
  // satisfiability probe is wired to this comm's live message accounting
  // (queued + handed + in-flight toward a mailbox). nullptr detaches.
  void set_wait_graph(sim::WaitGraph* graph) {
    graph_ = graph;
    if (graph_ == nullptr) return;
    graph_->set_satisfiable_probe([this](const sim::WaitResource& res) {
      switch (res.kind) {
        case sim::WaitResource::Kind::kMailbox:
          return unconsumed(static_cast<std::size_t>(res.a),
                            static_cast<int>(static_cast<long long>(res.b))) >
                 0;
        case sim::WaitResource::Kind::kBarrier:
          // A released-but-not-yet-resumed waiter's edge is about to clear.
          return barrier_release_pending_ > 0;
        default:
          return false;
      }
    });
    // Until a rank arrives at the barrier it is what the barrier waits for.
    for (std::size_t r = 0; r < machines_; ++r)
      graph_->add_hold(sim::WaitResource::barrier(), r);
  }
  sim::WaitGraph* wait_graph() { return graph_; }

  // Messages that can still satisfy a blocked recv(rank, tag): queued in
  // the mailbox, handed to a woken-but-unresumed receiver, or in flight
  // from any sender (posted but not yet landed, lost, or abandoned).
  std::size_t unconsumed(std::size_t rank, int tag) {
    PGXD_CHECK(rank < machines_);
    auto& ch = mailbox(rank, tag);
    std::size_t n = ch.size() + ch.handed_pending();
    const auto& inflight = inflight_to_[rank];
    const std::size_t t = tag_index(tag);
    if (t < inflight.size()) n += static_cast<std::size_t>(inflight[t]);
    return n;
  }

  // Raises RankCrashedError when `rank` is crash-stopped right now — the
  // DES analogue of the process dying mid-instruction. Every comm
  // operation a rank initiates passes through this, so a crashed rank's
  // program unwinds at its next communication instead of computing into
  // the void.
  void throw_if_crashed(std::size_t rank) const {
    if (fabric_.down(rank, sim_.now()))
      throw RankCrashedError(rank, sim_.now());
  }

  bool is_unreachable(std::size_t dst) const {
    return unreachable_[dst] != 0;
  }
  bool any_unreachable() const {
    return std::any_of(unreachable_.begin(), unreachable_.end(),
                       [](char u) { return u != 0; });
  }

  // Names peers marked unreachable by fail-fast sends, for Cluster::run's
  // end-of-run diagnostics.
  std::string unreachable_report() const {
    std::string out;
    for (std::size_t dst = 0; dst < unreachable_.size(); ++dst)
      if (unreachable_[dst] != 0) out += " rank " + std::to_string(dst);
    return out;
  }

  // Asynchronous send: returns immediately; the payload is delivered to
  // dst's mailbox when the simulated transfer completes (in reliable mode:
  // when the first surviving copy arrives). Local (src == dst) posts
  // deliver at the current instant without touching the fabric.
  void post(std::size_t src, std::size_t dst, int tag, Payload payload,
            std::uint64_t bytes) {
    PGXD_CHECK(src < machines_ && dst < machines_);
    throw_if_crashed(src);
    Msg msg{src, tag, bytes, std::move(payload)};
    if (src == dst) {
      mailbox(dst, tag).send(std::move(msg));
      return;
    }
    msg.hdr.span_id = ++next_span_;
    if (rcfg_.enabled) {
      if (rcfg_.fail_fast && unreachable_[dst] != 0) {
        // The destination is already known dead: drop at the source
        // instead of burning a full retry ladder per message.
        ++rstats_.peer_unreachable;
        return;
      }
      note_inflight(dst, tag);
      sim_.spawn(post_send_proc(src, dst, tag,
                                enqueue(src, dst, std::move(msg), bytes)));
      return;
    }
    note_inflight(dst, tag);
    sim_.spawn(deliver(src, dst, tag, std::move(msg)));
  }

  // Blocking send: completes when the payload has been delivered (reliable
  // mode: when the delivery has been acknowledged).
  //
  // Deliberately a non-coroutine wrapper: GCC 12 miscompiles *prvalue*
  // arguments bound to coroutine by-value parameters (the temporary and the
  // frame copy end up sharing ownership — double free). Materializing the
  // argument as this function's named parameter and forwarding an xvalue
  // into the coroutine sidesteps that; see tests/runtime_test.cpp's
  // Comm.PrvaluePayloadRegression.
  sim::Task<void> send(std::size_t src, std::size_t dst, int tag,
                       Payload payload, std::uint64_t bytes) {
    return send_impl(src, dst, tag, std::move(payload), bytes);
  }

  // Blocking receive registering a wait edge for the duration of the
  // suspension (when a wait-for graph is attached). Wrapping the channel
  // awaiter keeps sync.hpp graph-free; the edge brackets exactly the
  // suspended window — an immediately-ready receive registers nothing.
  struct [[nodiscard]] TrackedRecvAwaiter {
    typename sim::Channel<Msg>::RecvAwaiter inner;
    sim::WaitGraph* graph;
    std::size_t rank;
    int tag;
    std::size_t token = sim::WaitGraph::kNoToken;

    bool await_ready() const noexcept { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) {
      inner.await_suspend(h);
      // Registered last: the detection pass triggered by begin_wait must
      // observe the channel's waiter bookkeeping already in place.
      if (graph != nullptr)
        token = graph->begin_wait(rank, sim::WaitResource::mailbox(rank, tag));
    }
    Msg await_resume() {
      if (token != sim::WaitGraph::kNoToken) graph->end_wait(token);
      return inner.await_resume();
    }
  };

  // Next message for (rank, tag); FIFO within the tag.
  TrackedRecvAwaiter recv(std::size_t rank, int tag) {
    PGXD_CHECK(rank < machines_);
    return TrackedRecvAwaiter{mailbox(rank, tag).recv(), graph_, rank, tag};
  }

  // Deadline-bounded receive: resolves to the next message of `tag`, or to
  // std::nullopt if none arrived by the absolute sim-time `deadline`. A
  // receive satisfied before its deadline cancels the timer without
  // advancing the clock, so polling loops built on this are timing-neutral
  // on the fast path.
  auto recv_until(std::size_t rank, int tag, sim::SimTime deadline) {
    PGXD_CHECK(rank < machines_);
    return mailbox(rank, tag).recv_until(deadline);
  }

  // Non-blocking receive: the next queued message of `tag`, if any.
  std::optional<Msg> try_recv(std::size_t rank, int tag) {
    PGXD_CHECK(rank < machines_);
    return mailbox(rank, tag).try_recv();
  }

  // Barrier arrival with wait-graph bookkeeping: a suspended arriver trades
  // its "not yet arrived" hold for a barrier wait edge; the last arriver
  // re-arms every rank's hold for the next round and marks the released
  // waiters satisfiable until each has actually resumed (the barrier
  // analogue of Channel's handed-value window).
  struct [[nodiscard]] TrackedBarrierAwaiter {
    Comm& comm;
    std::size_t rank;
    std::size_t token = sim::WaitGraph::kNoToken;
    bool suspended = false;

    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      comm.note_barrier_arrival(rank);
      auto inner = comm.barrier_.arrive();
      if (!inner.await_suspend(h)) {
        // Last arriver: the round releases and this rank keeps running.
        comm.note_barrier_release();
        return false;
      }
      suspended = true;
      // Registered last, so a detection pass triggered by begin_wait sees
      // the barrier's arrival bookkeeping already in place.
      if (comm.graph_ != nullptr)
        token = comm.graph_->begin_wait(rank, sim::WaitResource::barrier());
      return true;
    }
    void await_resume() {
      if (token != sim::WaitGraph::kNoToken) comm.graph_->end_wait(token);
      if (suspended) {
        PGXD_DCHECK(comm.barrier_release_pending_ > 0);
        --comm.barrier_release_pending_;
      }
    }
  };

  // Full-cluster barrier (used between paper steps where required, and
  // heavily by the Spark baseline's stage boundaries). The rank names the
  // arriver for deadlock diagnostics.
  TrackedBarrierAwaiter barrier(std::size_t rank) {
    PGXD_CHECK(rank < machines_);
    return TrackedBarrierAwaiter{*this, rank};
  }

  std::size_t pending(std::size_t rank, int tag) {
    return mailbox(rank, tag).size();
  }

  // Messages delivered to `rank` but not yet received, across all tags —
  // the sampler's per-rank mailbox-depth probe.
  std::size_t pending_total(std::size_t rank) const {
    PGXD_CHECK(rank < machines_);
    std::size_t n = 0;
    for (const auto& ch : mailboxes_[rank])
      if (ch) n += ch->size();
    return n;
  }

  // Messages delivered but never received, across all ranks and tags. A
  // clean engine drains every mailbox; leftovers hide protocol bugs.
  std::size_t total_pending() const {
    std::size_t n = 0;
    for (const auto& boxes : mailboxes_)
      for (const auto& ch : boxes)
        if (ch) n += ch->size();
    return n;
  }

  // Names the receives still blocked after a run — which ranks are stuck
  // waiting on which tags — for the cluster's deadlock diagnostics.
  std::string blocked_report() const {
    std::string out;
    for (std::size_t rank = 0; rank < mailboxes_.size(); ++rank)
      for (std::size_t tag = 0; tag < mailboxes_[rank].size(); ++tag) {
        const auto& ch = mailboxes_[rank][tag];
        if (ch && ch->waiting() > 0)
          out += " rank " + std::to_string(rank) + " waits on tag " +
                 std::to_string(tag) + " (" + std::to_string(ch->waiting()) +
                 " recv)";
      }
    if (barrier_.waiting() > 0) {
      std::string ranks;
      for (std::size_t r = 0; r < at_barrier_.size(); ++r)
        if (at_barrier_[r] != 0) ranks += " " + std::to_string(r);
      out += " [" + std::to_string(barrier_.waiting()) +
             " rank(s) stuck at the barrier" +
             (ranks.empty() ? std::string{} : ":" + ranks) + "]";
    }
    if (out.empty()) out = " (none — processes are blocked elsewhere)";
    return out;
  }

  // Between-attempts reset for the recovery supervisor: discards every
  // undelivered mailbox message and forgets unreachable markings, so an
  // aborted attempt's stragglers cannot contaminate the re-run. Only valid
  // at quiescence (no receiver may still be waiting).
  void drain_mailboxes() {
    for (auto& boxes : mailboxes_)
      for (auto& ch : boxes) {
        if (!ch) continue;
        PGXD_CHECK_MSG(ch->waiting() == 0,
                       "drain_mailboxes with a receiver still blocked");
        ch->clear();
      }
    std::fill(unreachable_.begin(), unreachable_.end(), char{0});
  }

  // Names mailboxes holding undelivered messages after a run.
  std::string stray_report() const {
    std::string out;
    for (std::size_t rank = 0; rank < mailboxes_.size(); ++rank)
      for (std::size_t tag = 0; tag < mailboxes_[rank].size(); ++tag) {
        const auto& ch = mailboxes_[rank][tag];
        if (ch && !ch->empty())
          out += " rank " + std::to_string(rank) + " tag " +
                 std::to_string(tag) + " (" + std::to_string(ch->size()) +
                 " msg)";
      }
    return out;
  }

 private:
  // Sender-side record of an unacknowledged message. The payload stays
  // here until the first accepted delivery (the receiver dedups, so
  // retransmits never need it again — only the modeled byte count rides
  // subsequent attempts).
  struct InFlight {
    Msg msg;
    std::uint64_t bytes = 0;
    bool acked = false;
    bool delivered = false;  // payload handed to the receiver's mailbox
    sim::Timeout* timer = nullptr;  // current attempt's RTO, cancellable

    InFlight(Msg m, std::uint64_t b) : msg(std::move(m)), bytes(b) {}
  };

  // Receiver-side exactly-once filter: per (src,dst) pair, a watermark of
  // contiguously-seen sequence numbers plus the out-of-order set above it
  // (compacted as the gap fills), so memory stays proportional to the
  // reorder window, not the message count.
  struct DedupWindow {
    std::uint64_t next_expected = 0;
    std::set<std::uint64_t> above;

    bool accept(std::uint64_t seq) {
      if (seq < next_expected) return false;
      if (!above.insert(seq).second) return false;
      auto it = above.begin();
      while (it != above.end() && *it == next_expected) {
        it = above.erase(it);
        ++next_expected;
      }
      return true;
    }
  };

  std::size_t pair_index(std::size_t src, std::size_t dst) const {
    return src * machines_ + dst;
  }

  // Size of the per-pair reliable-mode state: only the reliable paths index
  // it, and at p=1024 the p^2 maps and dedup windows cost ~117 MB.
  std::size_t reliable_pairs() const {
    return rcfg_.enabled ? machines_ * machines_ : 0;
  }

  std::uint64_t enqueue(std::size_t src, std::size_t dst, Msg msg,
                        std::uint64_t bytes) {
    const std::size_t pi = pair_index(src, dst);
    const std::uint64_t seq = next_seq_[pi]++;
    inflight_[pi].emplace(seq, std::make_shared<InFlight>(std::move(msg), bytes));
    return seq;
  }

  sim::Task<void> send_impl(std::size_t src, std::size_t dst, int tag,
                            Payload payload, std::uint64_t bytes) {
    PGXD_CHECK(src < machines_ && dst < machines_);
    throw_if_crashed(src);
    Msg msg{src, tag, bytes, std::move(payload)};
    if (src == dst) {
      mailbox(dst, tag).send(std::move(msg));
      co_return;
    }
    msg.hdr.span_id = ++next_span_;
    if (rcfg_.enabled) {
      if (rcfg_.fail_fast && unreachable_[dst] != 0) {
        ++rstats_.peer_unreachable;
        throw PeerUnreachableError(src, dst);
      }
      note_inflight(dst, tag);
      const bool acked = co_await reliable_send_proc(
          src, dst, tag, enqueue(src, dst, std::move(msg), bytes));
      if (!acked) {
        // Either the sender itself died mid-protocol or the destination is
        // unreachable — surface whichever the awaiting program can act on.
        throw_if_crashed(src);
        throw PeerUnreachableError(src, dst);
      }
      co_return;
    }
    note_inflight(dst, tag);
    co_await deliver(src, dst, tag, std::move(msg));
  }

  // Void adapter so post() can spawn the bool-returning retransmit loop as
  // a root process (fire-and-forget posts ignore the outcome; the
  // unreachable marking and stats carry the signal instead).
  sim::Task<void> post_send_proc(std::size_t src, std::size_t dst, int tag,
                                 std::uint64_t seq) {
    (void)co_await reliable_send_proc(src, dst, tag, seq);
  }

  // Only ever invoked with xvalue `msg` (see send() for why).
  //
  // Unreliable mode maps fault outcomes straight onto the mailbox: a
  // duplicated message arrives twice (engines that opt into a duplicating
  // fabric without reliable delivery must dedup at the application layer)
  // and a dropped message is simply lost — the resulting blocked receive
  // surfaces in Cluster::run's quiescence diagnostics.
  sim::Task<void> deliver(std::size_t src, std::size_t dst, int tag, Msg msg) {
    const sim::SimTime sent_at = sim_.now();
    const net::Delivery d = co_await fabric_.transfer(src, dst, msg.bytes);
    if (!d.delivered()) {
      note_settled(dst, tag);  // lost on the fabric; nothing will arrive
      co_return;
    }
    for (int c = 1; c < d.copies; ++c) {
      Msg copy = msg;
      record_flow_edge(msg.hdr.span_id, src, dst, tag,
                       sim::Trace::FlowKind::kData, msg.bytes, sent_at,
                       /*retransmit=*/false, /*duplicate=*/true);
      mailbox(dst, tag).send(std::move(copy));
    }
    record_flow_edge(msg.hdr.span_id, src, dst, tag,
                     sim::Trace::FlowKind::kData, msg.bytes, sent_at,
                     /*retransmit=*/false, /*duplicate=*/false);
    mailbox(dst, tag).send(std::move(msg));
    note_settled(dst, tag);  // landed: the mailbox now accounts for it
  }

  // The ack/retry state machine for one message: transmit, arm the RTO,
  // retransmit with doubled (capped) RTO until the ack arrives. The ack
  // handler cancels the armed timer, so the loop wakes at the ack instant
  // and the cancelled deadline never advances the clock. Returns true when
  // the message was acked; false when it was abandoned — because the
  // sender itself crash-stopped mid-protocol (the frame dies with the
  // host) or, in fail-fast mode, because the destination exhausted the
  // retry budget or is suspected dead. Without fail_fast, budget
  // exhaustion aborts the run loudly.
  sim::Task<bool> reliable_send_proc(std::size_t src, std::size_t dst, int tag,
                                     std::uint64_t seq) {
    auto& slot = inflight_[pair_index(src, dst)];
    std::shared_ptr<InFlight> rec = slot.at(seq);
    sim::SimTime rto = rcfg_.initial_rto;
    for (int attempt = 0;; ++attempt) {
      if (fabric_.down(src, sim_.now())) {
        if (!rec->delivered) note_settled(dst, tag);
        slot.erase(seq);
        co_return false;
      }
      const bool give_up = rcfg_.fail_fast && attempt > 0 &&
                           (unreachable_[dst] != 0 || suspected(src, dst));
      if (attempt >= rcfg_.max_attempts || give_up) {
        PGXD_CHECK_MSG(rcfg_.fail_fast,
                       "reliable delivery exhausted its retry budget "
                       "(fabric too lossy for max_attempts/max_rto?)");
        ++rstats_.peer_unreachable;
        unreachable_[dst] = 1;
        if (!rec->delivered) note_settled(dst, tag);
        slot.erase(seq);
        co_return false;
      }
      if (attempt == 0) {
        ++rstats_.frames_sent;
      } else {
        ++rstats_.retransmits;
        rstats_.retransmitted_bytes += rec->bytes;
      }
      // The header's span id is stable across attempts (move of the payload
      // leaves the scalar header intact); the attempt rides the frame so
      // receivers can tag retransmit edges without sender state.
      rec->msg.hdr.attempt =
          static_cast<std::uint16_t>(std::min(attempt, 0xffff));
      const std::uint64_t span = rec->msg.hdr.span_id;
      const sim::SimTime sent_at = sim_.now();
      const net::Delivery d = co_await fabric_.transfer(src, dst, rec->bytes);
      for (int c = 0; c < d.copies; ++c) {
        const bool accepted = on_data_frame(src, dst, tag, seq, *rec);
        record_flow_edge(span, src, dst, tag, sim::Trace::FlowKind::kData,
                         rec->bytes, sent_at, /*retransmit=*/attempt > 0,
                         /*duplicate=*/!accepted);
      }
      if (!rec->acked) {
        sim::Timeout timer(sim_, jittered(rto));
        rec->timer = &timer;
        co_await timer.wait();
        rec->timer = nullptr;
      }
      if (rec->acked) {
        slot.erase(seq);
        co_return true;
      }
      rto = std::min<sim::SimTime>(rto * 2, rcfg_.max_rto);
    }
  }

  bool suspected(std::size_t observer, std::size_t peer) const {
    return suspects_ && suspects_(observer, peer);
  }

  // Receiver side of a data frame (same address space: invoked directly by
  // the completing transfer). Delivers to the mailbox exactly once per
  // seq; always acks, because a duplicate frame usually means a lost ack.
  // Returns whether this frame was the copy admitted to the mailbox (the
  // caller tags dedup-suppressed copies as duplicate flow edges).
  bool on_data_frame(std::size_t src, std::size_t dst, int tag,
                     std::uint64_t seq, InFlight& rec) {
    const std::uint64_t span = rec.msg.hdr.span_id;
    bool accepted = false;
    if (dedup_[pair_index(src, dst)].accept(seq)) {
      PGXD_CHECK(!rec.delivered);
      rec.delivered = true;
      accepted = true;
      mailbox(dst, tag).send(std::move(rec.msg));
      note_settled(dst, tag);  // landed: the mailbox now accounts for it
    } else {
      ++rstats_.duplicates_suppressed;
    }
    sim_.spawn(ack_proc(dst, src, seq, span));
    return accepted;
  }

  // Ack frame: real (droppable, duplicable) fabric traffic back to the
  // sender. Carries the acked message's span id so the trace can draw the
  // return edge.
  sim::Task<void> ack_proc(std::size_t from, std::size_t to,
                           std::uint64_t seq, std::uint64_t span) {
    ++rstats_.acks_sent;
    const sim::SimTime sent_at = sim_.now();
    const net::Delivery d =
        co_await fabric_.transfer(from, to, rcfg_.ack_wire_bytes);
    if (!d.delivered()) co_return;
    record_flow_edge(span, from, to, /*tag=*/-1, sim::Trace::FlowKind::kAck,
                     rcfg_.ack_wire_bytes, sent_at, /*retransmit=*/false,
                     /*duplicate=*/false);
    on_ack(to, from, seq);
  }

  void on_ack(std::size_t src, std::size_t dst, std::uint64_t seq) {
    ++rstats_.acks_received;
    auto& slot = inflight_[pair_index(src, dst)];
    auto it = slot.find(seq);
    if (it == slot.end()) return;  // duplicate ack for a completed message
    InFlight& rec = *it->second;
    if (rec.acked) return;
    rec.acked = true;
    if (rec.timer != nullptr) rec.timer->cancel();
  }

  // One flow edge per physical frame that landed on a receiver, recorded
  // at the arrival instant. No-op (one branch) when no trace is attached.
  void record_flow_edge(std::uint64_t span, std::size_t src, std::size_t dst,
                        int tag, sim::Trace::FlowKind kind,
                        std::uint64_t bytes, sim::SimTime sent_at,
                        bool retransmit, bool duplicate) {
    if (trace_ == nullptr) return;
    trace_->record_flow(sim::Trace::Flow(span, src, dst, sent_at, sim_.now(),
                                         bytes, tag, kind, retransmit,
                                         duplicate));
  }

  // In-flight accounting for the wait-graph satisfiability probe: one unit
  // per remote message, held from post()/send() until the message lands in
  // the destination mailbox, is lost on the unreliable fabric, or is
  // abandoned by a fail-fast sender. Tracked unconditionally so a graph
  // attached at cluster construction never sees a partial count.
  void note_inflight(std::size_t dst, int tag) {
    auto& inflight = inflight_to_[dst];
    const std::size_t t = tag_index(tag);
    if (t >= inflight.size()) inflight.resize(t + 1, 0);
    ++inflight[t];
  }
  // Every settle pairs with an earlier note_inflight; an unmatched one is an
  // accounting bug that would skew the wait-graph probe, so it aborts.
  void note_settled(std::size_t dst, int tag) {
    auto& inflight = inflight_to_[dst];
    const std::size_t t = tag_index(tag);
    PGXD_CHECK_MSG(t < inflight.size() && inflight[t] > 0,
                   ("comm: in-flight count underflow for messages to rank " +
                    std::to_string(dst) + " tag " + std::to_string(tag))
                       .c_str());
    --inflight[t];
  }

  void note_barrier_arrival(std::size_t rank) {
    at_barrier_[rank] = 1;
    if (graph_ != nullptr)
      graph_->remove_hold(sim::WaitResource::barrier(), rank);
  }

  // Last arriver of a round: every suspended waiter has been scheduled to
  // resume but still carries its wait edge until it actually runs. Count
  // them satisfiable until then, and re-arm every rank's not-yet-arrived
  // hold for the next round.
  void note_barrier_release() {
    std::size_t arrived = 0;
    for (char a : at_barrier_) arrived += (a != 0) ? 1 : 0;
    PGXD_DCHECK(arrived > 0);
    barrier_release_pending_ += arrived - 1;  // everyone except the releaser
    std::fill(at_barrier_.begin(), at_barrier_.end(), char{0});
    if (graph_ != nullptr)
      for (std::size_t r = 0; r < machines_; ++r)
        graph_->add_hold(sim::WaitResource::barrier(), r);
  }

  sim::SimTime jittered(sim::SimTime rto) {
    const auto span = static_cast<std::uint64_t>(
        static_cast<double>(rto) * rcfg_.backoff_jitter);
    if (span == 0) return rto;
    return rto + static_cast<sim::SimTime>(backoff_rng_.bounded(span + 1));
  }

  // Mailbox and in-flight tables are indexed by tag: engines use small
  // non-negative tag constants, so a vector beats a map on every touch.
  static std::size_t tag_index(int tag) {
    PGXD_CHECK_MSG(tag >= 0, "comm: message tags must be non-negative");
    return static_cast<std::size_t>(tag);
  }

  sim::Channel<Msg>& mailbox(std::size_t rank, int tag) {
    auto& boxes = mailboxes_[rank];
    const std::size_t t = tag_index(tag);
    if (t >= boxes.size()) boxes.resize(t + 1);
    auto& slot = boxes[t];
    if (!slot) slot = std::make_unique<sim::Channel<Msg>>(sim_);
    return *slot;
  }

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  std::size_t machines_;
  ReliableConfig rcfg_;
  ReliableStats rstats_;
  sim::Barrier barrier_;
  // Per rank, indexed by tag; null until a tag is first touched.
  std::vector<std::vector<std::unique_ptr<sim::Channel<Msg>>>> mailboxes_;
  // Reliable-mode state, indexed by pair_index(src, dst); empty when
  // reliable delivery is off.
  std::vector<std::map<std::uint64_t, std::shared_ptr<InFlight>>> inflight_;
  std::vector<std::uint64_t> next_seq_;
  std::vector<DedupWindow> dedup_;
  // Destinations given up on by fail-fast sends (reset by drain_mailboxes).
  std::vector<char> unreachable_;
  // Wait-for graph integration (attached by Cluster; null when detached).
  sim::WaitGraph* graph_ = nullptr;
  // Remote messages headed for (dst, tag) that have not yet landed, been
  // lost, or been abandoned — the satisfiability probe's in-flight term.
  // Per destination, indexed by tag.
  std::vector<std::vector<std::int64_t>> inflight_to_;
  // Ranks currently arrived-and-suspended at the barrier, for deadlock
  // diagnostics naming.
  std::vector<char> at_barrier_;
  // Barrier waiters released but not yet resumed (their wait edges are
  // still registered; the probe treats them as satisfiable).
  std::size_t barrier_release_pending_ = 0;
  std::function<bool(std::size_t, std::size_t)> suspects_;
  Rng backoff_rng_{0};
  // Causal tracing: span-id source (stamped on every remote message even
  // when untraced, so headers are always meaningful) and the optional
  // flow-edge sink.
  std::uint64_t next_span_ = 0;
  sim::Trace* trace_ = nullptr;
};

}  // namespace pgxd::rt
