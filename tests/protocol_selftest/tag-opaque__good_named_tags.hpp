// Fixture: every endpoint names its tags, a choice between two included;
// the one forwarder that passes its caller's tag on is marked as such.
#pragma once

namespace fixture {

inline constexpr int kTagPing = 0;
inline constexpr int kTagPong = 1;

template <typename Comm>
sim::Task<Frame> recv_from(Comm& comm, std::size_t peer, int tg) {
  // pgxd-protocol: allow(tag-opaque) -- forwards the caller's tag
  auto env = co_await comm.recv(peer, tg);
  co_return env.frame;
}

template <typename Comm>
sim::Task run(Comm& comm, std::size_t peer, bool pong) {
  comm.post(peer, pong ? kTagPong : kTagPing, make_frame());
  auto a = co_await comm.recv(peer, pong ? kTagPong : kTagPing);
  comm.post(peer, kTagPing, std::move(a.frame));
  auto b = co_await recv_from(comm, peer, kTagPing);
  (void)b;
}

}  // namespace fixture
