/// The persistent world (Runtime::start / operate / stop): worker ranks
/// outlive one operation, rank 0 is the calling thread, every operation is
/// isolated from the last, and a failing operation leaves the world usable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::mpi {
namespace {

constexpr Tag kTagPing = 1;
constexpr Tag kTagPong = 2;

std::span<const std::byte> op_bytes(const std::byte& b) { return {&b, 1}; }

/// Echo world: each worker answers rank 0's ping with its own rank.
void start_echo(Runtime& rt) {
  rt.start([](Comm& c, std::span<const std::byte>) {
    const Message m = c.recv(0, kTagPing);
    const int me = c.rank();
    c.send(0, kTagPong, std::as_bytes(std::span<const int, 1>(&me, 1)));
    (void)m;
  });
}

void ping_all(Comm& c) {
  for (int w = 1; w < c.size(); ++w) c.send(w, kTagPing, {});
  for (int w = 1; w < c.size(); ++w) (void)c.recv(w, kTagPong);
}

TEST(MpiWorld, RanksPersistAcrossOperationsAndRankZeroIsTheCaller) {
  Runtime rt(4);
  start_echo(rt);
  EXPECT_TRUE(rt.started());
  EXPECT_EQ(rt.threads_started(), 3u);
  const auto caller = std::this_thread::get_id();
  const std::byte op{0};
  for (int i = 0; i < 50; ++i) {
    (void)rt.operate(op_bytes(op), [&](Comm& c) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      EXPECT_EQ(c.rank(), 0);
      ping_all(c);
    });
  }
  EXPECT_EQ(rt.threads_started(), 3u);  // no operation spawned a thread
  rt.stop();
  EXPECT_FALSE(rt.started());
  rt.stop();  // idempotent
}

TEST(MpiWorld, EachOperationReportsItsOwnTraffic) {
  Runtime rt(3);
  start_echo(rt);
  const std::byte op{0};
  const auto first = rt.operate(op_bytes(op), ping_all);
  const auto second = rt.operate(op_bytes(op), ping_all);
  // Per worker: the control message, the ping and the pong.
  EXPECT_EQ(first.p2p_messages, 3u * 2u);
  EXPECT_EQ(second.p2p_messages, first.p2p_messages);
  EXPECT_EQ(second.p2p_bytes, first.p2p_bytes);
  EXPECT_EQ(second.rma_ops, first.rma_ops);
}

TEST(MpiWorld, AMessageLeftByOneOperationNeverMatchesInTheNext) {
  Runtime rt(2);
  std::atomic<int> got{-1};
  rt.start([&](Comm& c, std::span<const std::byte> op) {
    if (op[0] == std::byte{1}) {
      // Operation 1: send a stray message nobody receives.
      const int stray = 111;
      c.send(0, kTagPong, std::as_bytes(std::span<const int, 1>(&stray, 1)));
      return;
    }
    const int fresh = 222;
    c.send(0, kTagPong, std::as_bytes(std::span<const int, 1>(&fresh, 1)));
  });
  const std::byte one{1};
  const std::byte two{2};
  (void)rt.operate(op_bytes(one), [](Comm&) {});
  (void)rt.operate(op_bytes(two), [&](Comm& c) {
    const Message m = c.recv(1, kTagPong);
    int v = 0;
    std::memcpy(&v, m.payload.data(), sizeof v);
    got = v;
  });
  EXPECT_EQ(got.load(), 222);
}

TEST(MpiWorld, AFailingOperationDoesNotWedgeTheNext) {
  Runtime rt(3);
  rt.start([](Comm& c, std::span<const std::byte> op) {
    if (op[0] == std::byte{1} && c.rank() == 2) {
      throw std::runtime_error("worker failure");
    }
    (void)c.recv(0, kTagPing);
    c.send(0, kTagPong, {});
  });
  const std::byte fail{1};
  const std::byte ok{0};
  // A worker throws: its peer finishes, the error reaches the caller.
  EXPECT_THROW((void)rt.operate(op_bytes(fail),
                                [](Comm& c) {
                                  c.send(1, kTagPing, {});
                                  (void)c.recv(1, kTagPong);
                                }),
               std::runtime_error);
  // The master throws after its workers are served.
  EXPECT_THROW((void)rt.operate(op_bytes(ok),
                                [](Comm& c) {
                                  ping_all(c);
                                  throw std::logic_error("master failure");
                                }),
               std::logic_error);
  // Both failures are behind us: a full operation runs.
  (void)rt.operate(op_bytes(ok), ping_all);
  EXPECT_EQ(rt.threads_started(), 2u);
}

TEST(MpiWorld, FatalCheckerFindingFailsOneOperationOnly) {
  Runtime rt(2);
  check::CheckOptions o;
  o.enabled = true;
  o.fatal = true;
  rt.configure_check(o);
  rt.start([](Comm& c, std::span<const std::byte> op) {
    // Operation 1 leaves an unmatched send behind.
    if (op[0] == std::byte{1}) c.send(0, kTagPong, {});
  });
  const std::byte leak{1};
  const std::byte clean{0};
  EXPECT_THROW((void)rt.operate(op_bytes(leak), [](Comm&) {}), Error);
  EXPECT_NO_THROW((void)rt.operate(op_bytes(clean), [](Comm&) {}));
  EXPECT_EQ(rt.check_report().counts[std::size_t(check::Rule::kUnmatchedSend)],
            1u);
}

TEST(MpiWorld, WindowOutlivesOperationsAndRankZeroGrowsItLocally) {
  Runtime rt(3);
  std::vector<Window> wins(3);
  rt.start([&](Comm& c, std::span<const std::byte>) {
    Window& w = wins[std::size_t(c.rank())];
    if (!w.valid()) w = c.create_window(0);
    w.lock_shared(0);
    const std::byte mine{std::uint8_t(c.rank())};
    w.put(0, std::size_t(c.rank()), {&mine, 1});
    w.unlock(0);
  });
  const std::byte op{0};
  (void)rt.operate(op_bytes(op), [&](Comm& c) { wins[0] = c.create_window(4); });
  EXPECT_EQ(wins[0].local_data()[2], std::byte{2});
  wins[0].grow_local(64);  // between operations: no epoch is open
  EXPECT_EQ(wins[0].local_size(), 64u);
  EXPECT_EQ(wins[0].local_data()[1], std::byte{1});  // bytes kept
  (void)rt.operate(op_bytes(op), [](Comm&) {});
  EXPECT_EQ(wins[0].local_data()[2], std::byte{2});
}

/// Threads of this process, as the kernel lists them.
std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(MpiWorld, DestructorJoinsTheCohort) {
  const std::size_t before = process_threads();
  std::atomic<int> ran{0};
  {
    Runtime rt(5);
    rt.start([&](Comm&, std::span<const std::byte>) { ran.fetch_add(1); });
    EXPECT_EQ(process_threads(), before + 4);
    const std::byte op{0};
    (void)rt.operate(op_bytes(op), [](Comm&) {});
  }
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(process_threads(), before);
}

}  // namespace
}  // namespace annsim::mpi
