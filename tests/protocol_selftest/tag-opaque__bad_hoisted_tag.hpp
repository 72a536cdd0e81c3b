// Fixture: both tags are posted and received by name, so the pairing
// check is satisfied — but the last receive takes its tag from a variable,
// and nothing checks that one against any send.
#pragma once

namespace fixture {

inline constexpr int kTagPing = 0;
inline constexpr int kTagPong = 1;

template <typename Comm>
sim::Task run(Comm& comm, std::size_t peer, bool pong) {
  comm.post(peer, kTagPing, make_frame());
  comm.post(peer, kTagPong, make_frame());
  auto a = co_await comm.recv(peer, kTagPing);
  auto b = co_await comm.recv(peer, kTagPong);
  const int tag = pong ? kTagPong : kTagPing;
  auto c = co_await comm.recv(peer, tag);
  (void)a;
  (void)b;
  (void)c;
}

}  // namespace fixture
