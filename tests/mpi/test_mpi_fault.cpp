#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "annsim/common/error.hpp"
#include "annsim/mpi/fault.hpp"
#include "annsim/mpi/mpi.hpp"

namespace annsim::mpi {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

TEST(MpiFault, InertPlanInstallsNoInjector) {
  Runtime rt(2, FaultPlan{});
  EXPECT_EQ(rt.fault_injector(), nullptr);
  EXPECT_TRUE(rt.failed_ranks().empty());
  rt.run([&](Comm& c) {
    if (c.rank() == 0) c.send(1, 1, bytes_of("x"));
    else (void)c.recv(0, 1);
  });
}

TEST(MpiFault, KillAfterOpsSilencesLaterSends) {
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*after_ops=*/3, kNeverFires});
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send(1, 1, bytes_of("m"));
      c.barrier();  // collectives survive the kill
    } else {
      c.barrier();
      // Exactly the first three sends got through.
      for (int i = 0; i < 3; ++i) (void)c.recv(0, 1);
      EXPECT_FALSE(c.iprobe(0, 1));
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{0});
  ASSERT_NE(rt.fault_injector(), nullptr);
  EXPECT_TRUE(rt.fault_injector()->is_dead(0));
  EXPECT_FALSE(rt.fault_injector()->is_dead(1));
}

TEST(MpiFault, KillAtLogicalStep) {
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, kNeverFires, /*at_step=*/2});
  Runtime rt(2, plan);
  FaultInjector* inj = rt.fault_injector();
  ASSERT_NE(inj, nullptr);

  rt.run([&](Comm& c) {
    if (c.rank() == 1) c.send(0, 1, bytes_of("before"));
    else (void)c.recv(1, 1);
  });
  EXPECT_TRUE(rt.failed_ranks().empty());

  inj->advance_step();
  inj->advance_step();
  EXPECT_EQ(inj->step(), 2u);

  // Injector state persists across run() calls: rank 1 is now past its step.
  rt.run([&](Comm& c) {
    if (c.rank() == 1) {
      c.send(0, 1, bytes_of("after"));
      c.barrier();
    } else {
      c.barrier();
      EXPECT_FALSE(c.iprobe(1, 1));
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{1});
}

TEST(MpiFault, DropProbabilityOneEatsEveryUserSend) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_probability = 1.0;
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) c.send(1, 1, bytes_of("gone"));
      c.barrier();  // internal tags are never dropped
    } else {
      c.barrier();
      EXPECT_FALSE(c.iprobe(0, 1));
    }
  });
  // Dropping is not death: no rank's kill rule fired.
  EXPECT_TRUE(rt.failed_ranks().empty());
  // The sender still paid for the attempted messages.
  EXPECT_EQ(rt.per_rank_traffic()[0].p2p_messages, 5u);
}

TEST(MpiFault, DropDecisionsAreSeedDeterministic) {
  // The op-indexed hash must give the same verdicts run after run.
  auto delivered_count = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.5;
    Runtime rt(2, plan);
    int got = 0;
    rt.run([&](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 64; ++i) c.send(1, 1, bytes_of("d"));
        c.barrier();
      } else {
        c.barrier();
        while (c.iprobe(0, 1)) {
          (void)c.recv(0, 1);
          ++got;
        }
      }
    });
    return got;
  };
  const int a = delivered_count(7);
  EXPECT_EQ(a, delivered_count(7));
  EXPECT_GT(a, 0);
  EXPECT_LT(a, 64);
}

TEST(MpiFault, DelayStallsTheSenderButDelivers) {
  FaultPlan plan;
  plan.delay_probability = 1.0;
  plan.delay = std::chrono::microseconds(2000);
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < 5; ++i) c.send(1, 1, bytes_of("slow"));
      const auto elapsed = std::chrono::steady_clock::now() - t0;
      EXPECT_GE(elapsed, std::chrono::microseconds(5 * 2000));
    } else {
      for (int i = 0; i < 5; ++i) (void)c.recv(0, 1);
    }
  });
}

TEST(MpiFault, RmaMutationsFromDeadRankVanish) {
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/1, /*after_ops=*/0, kNeverFires});
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    Window win = c.create_window(c.rank() == 0 ? 8 : 0);
    c.barrier();
    if (c.rank() == 1) {
      win.lock_shared(0);
      const std::uint64_t v = 0xdeadbeef;
      win.put(0, 0, std::as_bytes(std::span<const std::uint64_t, 1>(&v, 1)));
      // Reads are never faulted: the dead rank still sees the target.
      auto back = win.get(0, 0, 8);
      std::uint64_t read_back = 1;
      std::memcpy(&read_back, back.data(), 8);
      EXPECT_EQ(read_back, 0u);  // its own put was swallowed
      win.unlock(0);
    }
    c.barrier();
    if (c.rank() == 0) {
      std::uint64_t mine = 1;
      std::memcpy(&mine, win.local_data().data(), 8);
      EXPECT_EQ(mine, 0u);
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{1});
}

TEST(MpiFault, ReliableTagsBypassDropButNotDeath) {
  // Control-plane tags survive the drop roll like internal collective
  // traffic, but reliable is not death-proof: a dead rank is silent on
  // every user tag (see fault.hpp).
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_probability = 1.0;  // eats every gated send
  plan.reliable_tags.push_back(7);
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, bytes_of("data"));      // gated: dropped
      c.send(1, 7, bytes_of("control"));   // reliable: delivered (alive)
      c.barrier();
    } else {
      c.barrier();
      EXPECT_FALSE(c.iprobe(0, 1));
      Message m = c.recv(0, 7);
      EXPECT_EQ(m.payload.size(), 7u);
    }
  });
  EXPECT_TRUE(rt.failed_ranks().empty());
}

TEST(MpiFault, DeadRankIsSilentOnReliableTags) {
  // A crashed process loses its control plane along with everything else:
  // reliable tags model a lossless fabric, not a worker that outlives death.
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*after_ops=*/0, kNeverFires});
  plan.reliable_tags.push_back(7);
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 7, bytes_of("control"));  // reliable, but the sender is dead
      c.barrier();
    } else {
      c.barrier();
      EXPECT_FALSE(c.iprobe(0, 7));
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{0});
}

TEST(MpiFault, ReliableSendsDoNotConsumeTheOpBudget) {
  // after_ops counts gated ops only: interleaved reliable sends must not
  // advance a rank toward its kill trigger. Once the gated budget is spent
  // the rank is dead and its reliable sends go silent too.
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*after_ops=*/2, kNeverFires});
  plan.reliable_tags.push_back(9);
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        c.send(1, 9, bytes_of("r"));  // reliable: free while alive
        c.send(1, 1, bytes_of("g"));  // gated: consumes the budget
      }
      c.barrier();
    } else {
      c.barrier();
      int gated = 0, reliable = 0;
      while (c.iprobe(0, 1)) { (void)c.recv(0, 1); ++gated; }
      while (c.iprobe(0, 9)) { (void)c.recv(0, 9); ++reliable; }
      EXPECT_EQ(gated, 2);     // first two gated ops, then dead
      EXPECT_EQ(reliable, 2);  // control flows only while the rank lives
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{0});
}

TEST(MpiFault, ReviveRestoresDeliveryAndDisarmsTheKill) {
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*after_ops=*/0, kNeverFires});
  auto inj = std::make_shared<FaultInjector>(plan, 2);
  {
    Runtime rt(2, inj);
    rt.run([&](Comm& c) {
      if (c.rank() == 0) {
        c.send(1, 1, bytes_of("lost"));
        c.barrier();
      } else {
        c.barrier();
        EXPECT_FALSE(c.iprobe(0, 1));
      }
    });
  }
  EXPECT_TRUE(inj->is_dead(0));

  inj->revive(0);
  EXPECT_FALSE(inj->is_dead(0));

  // The kill rule is disarmed, not re-armed: every post-revive send lands.
  Runtime rt(2, inj);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) c.send(1, 1, bytes_of("back"));
      c.barrier();
    } else {
      c.barrier();
      for (int i = 0; i < 8; ++i) (void)c.recv(0, 1);
      EXPECT_FALSE(c.iprobe(0, 1));
    }
  });
  EXPECT_TRUE(rt.failed_ranks().empty());
}

TEST(MpiFault, SharedInjectorPersistsDeathAcrossRuntimes) {
  // An engine-owned injector carries death flags between search() batches:
  // a rank killed in one Runtime stays dead in the next one.
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*after_ops=*/1, kNeverFires});
  auto inj = std::make_shared<FaultInjector>(plan, 2);
  {
    Runtime rt(2, inj);
    rt.run([&](Comm& c) {
      if (c.rank() == 0) {
        c.send(1, 1, bytes_of("a"));  // delivered, spends the budget
        c.send(1, 1, bytes_of("b"));  // kill fires
        c.barrier();
      } else {
        c.barrier();
        (void)c.recv(0, 1);
        EXPECT_FALSE(c.iprobe(0, 1));
      }
    });
  }
  EXPECT_TRUE(inj->is_dead(0));

  Runtime rt(2, inj);
  EXPECT_EQ(rt.fault_injector(), inj.get());
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, bytes_of("still-dead"));
      c.barrier();
    } else {
      c.barrier();
      EXPECT_FALSE(c.iprobe(0, 1));
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{0});
}

TEST(MpiFault, DuplicateDeliveryArrivesTwiceButControlPlaneStaysExactlyOnce) {
  // duplicate_probability == 1 retransmits every best-effort op: the same
  // bytes land twice, back to back. Reliable tags ride the exactly-once
  // control plane and are exempt from the roll.
  FaultPlan plan;
  plan.seed = 21;
  plan.duplicate_probability = 1.0;
  plan.reliable_tags.push_back(7);
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        c.send(1, 1, bytes_of("m" + std::to_string(i)));
      }
      c.send(1, 7, bytes_of("control"));
      c.barrier();
    } else {
      c.barrier();
      std::vector<std::string> got;
      while (c.iprobe(0, 1)) {
        Message m = c.recv(0, 1);
        got.emplace_back(reinterpret_cast<const char*>(m.payload.data()),
                         m.payload.size());
      }
      // Each send delivered twice, retransmission adjacent to the original
      // and bit-identical to it.
      const std::vector<std::string> want = {"m0", "m0", "m1", "m1",
                                             "m2", "m2"};
      EXPECT_EQ(got, want);
      int control = 0;
      while (c.iprobe(0, 7)) { (void)c.recv(0, 7); ++control; }
      EXPECT_EQ(control, 1);
    }
  });
  EXPECT_TRUE(rt.failed_ranks().empty());
  // Duplication is fabric-side: the sender paid for three attempts, not six.
  EXPECT_EQ(rt.per_rank_traffic()[0].p2p_messages, 4u);
}

TEST(MpiFault, ReorderDeliveryOvertakesEverythingQueuedAhead) {
  // reorder_probability == 1 makes every message jump the receiver's queue,
  // so a backlog drains in reverse send order. A recv already pending sees
  // the message immediately either way (nothing to overtake).
  FaultPlan plan;
  plan.seed = 22;
  plan.reorder_probability = 1.0;
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        c.send(1, 1, bytes_of("m" + std::to_string(i)));
      }
      c.barrier();
    } else {
      c.barrier();  // all three are queued before the first recv posts
      std::vector<std::string> got;
      while (c.iprobe(0, 1)) {
        Message m = c.recv(0, 1);
        got.emplace_back(reinterpret_cast<const char*>(m.payload.data()),
                         m.payload.size());
      }
      const std::vector<std::string> want = {"m2", "m1", "m0"};
      EXPECT_EQ(got, want);
    }
  });
  EXPECT_TRUE(rt.failed_ranks().empty());
}

TEST(MpiFault, PlanValidationRejectsBadFields) {
  {
    FaultPlan p;
    p.drop_probability = 1.5;
    EXPECT_THROW(FaultInjector(p, 2), Error);
  }
  {
    FaultPlan p;
    p.delay_probability = -0.1;
    EXPECT_THROW(FaultInjector(p, 2), Error);
  }
  {
    FaultPlan p;
    p.duplicate_probability = 1.5;
    EXPECT_THROW(FaultInjector(p, 2), Error);
  }
  {
    FaultPlan p;
    p.reorder_probability = -0.5;
    EXPECT_THROW(FaultInjector(p, 2), Error);
  }
  {
    FaultPlan p;
    p.kills.push_back({/*rank=*/5, 0, kNeverFires});
    EXPECT_THROW(FaultInjector(p, 2), Error);
  }
  {
    FaultPlan p;
    p.reliable_tags.push_back(-2);  // internal tags cannot be declared
    EXPECT_THROW(FaultInjector(p, 2), Error);
  }
}

TEST(MpiFault, ThreadTeamRacesOnOneRankKillExactlyOnce) {
  // A killed worker's whole thread team funnels through allow_op; the op
  // budget must be consumed exactly once per send regardless of interleaving.
  FaultPlan plan;
  plan.kills.push_back({/*rank=*/0, /*after_ops=*/100, kNeverFires});
  Runtime rt(2, plan);
  rt.run([&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<std::thread> team;
      for (int t = 0; t < 4; ++t) {
        team.emplace_back([&] {
          for (int i = 0; i < 50; ++i) c.send(1, 1, bytes_of("t"));
        });
      }
      for (auto& t : team) t.join();
      c.barrier();
    } else {
      c.barrier();
      int got = 0;
      while (c.iprobe(0, 1)) {
        (void)c.recv(0, 1);
        ++got;
      }
      // 200 attempted, first 100 ops allowed.
      EXPECT_EQ(got, 100);
    }
  });
  EXPECT_EQ(rt.failed_ranks(), std::vector<int>{0});
}

TEST(MpiFault, KillBudgetDeliversExactlyItsOpsUnderAnyInterleaving) {
  // The budget is decided by the op index a thread claims, not by when it
  // reads the death mark: a thread preempted between claiming an op below
  // the budget and checking must still deliver it after another thread's op
  // exhausted the budget. More threads than cores and many rounds make that
  // preemption common.
  constexpr int kThreads = 8;
  constexpr int kSendsPerThread = 40;
  constexpr std::uint64_t kBudget = 150;
  for (int round = 0; round < 400; ++round) {
    FaultPlan plan;
    plan.kills.push_back({/*rank=*/0, kBudget, kNeverFires});
    FaultInjector inj(plan, 2);
    std::atomic<int> delivered{0};
    std::vector<std::thread> team;
    for (int t = 0; t < kThreads; ++t) {
      team.emplace_back([&, t] {
        for (int i = 0; i < kSendsPerThread; ++i) {
          if (inj.allow_op(0)) delivered.fetch_add(1);
          if (i % 4 == t % 4) std::this_thread::yield();
        }
      });
    }
    for (auto& t : team) t.join();
    EXPECT_EQ(delivered.load(), int(kBudget)) << "round " << round;
    EXPECT_TRUE(inj.is_dead(0));
  }
}

TEST(MpiFault, DiskFaultFiresOnceAtLsnAndKillsTheRank) {
  FaultPlan plan;
  plan.disk_faults.push_back(
      {/*rank=*/2, /*at_lsn=*/10, DiskFaultKind::kTornWrite});
  EXPECT_TRUE(plan.enabled());  // disk faults alone arm the injector
  FaultInjector inj(plan, 4);

  // Below the trigger: the fast path, nothing fires, nobody dies.
  EXPECT_EQ(inj.disk_fault_at(2, 9), std::nullopt);
  EXPECT_FALSE(inj.is_dead(2));
  // Other ranks never consult this rule.
  EXPECT_EQ(inj.disk_fault_at(1, 10), std::nullopt);
  EXPECT_FALSE(inj.is_dead(1));

  // The first frame whose LSN reaches the trigger gets the fault kind back
  // and the rank is dead from that point on (all disk faults are terminal).
  const auto kind = inj.disk_fault_at(2, 10);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, DiskFaultKind::kTornWrite);
  EXPECT_TRUE(inj.is_dead(2));

  // Fires exactly once: later frames see a disarmed rule.
  EXPECT_EQ(inj.disk_fault_at(2, 11), std::nullopt);
  EXPECT_EQ(inj.disk_fault_at(2, 10), std::nullopt);
}

TEST(MpiFault, DiskFaultFiresOnTheFirstLsnPastTheTrigger) {
  // LSNs are global while each worker logs only its own subset, so the
  // armed LSN may never appear verbatim in this rank's stream: the rule
  // fires on the first frame at or past it.
  FaultPlan plan;
  plan.disk_faults.push_back(
      {/*rank=*/1, /*at_lsn=*/10, DiskFaultKind::kFlipByte});
  FaultInjector inj(plan, 3);
  EXPECT_EQ(inj.disk_fault_at(1, 7), std::nullopt);
  const auto kind = inj.disk_fault_at(1, 13);
  ASSERT_TRUE(kind.has_value());
  EXPECT_EQ(*kind, DiskFaultKind::kFlipByte);
  EXPECT_TRUE(inj.is_dead(1));
}

TEST(MpiFault, ReviveDisarmsAFiredDiskFault) {
  FaultPlan plan;
  plan.disk_faults.push_back(
      {/*rank=*/1, /*at_lsn=*/5, DiskFaultKind::kCrashAtLsn});
  FaultInjector inj(plan, 3);
  ASSERT_TRUE(inj.disk_fault_at(1, 5).has_value());
  ASSERT_TRUE(inj.is_dead(1));

  // Heal revives the rank; the spent rule must not re-fire on the next
  // frame the recovered log commits.
  inj.revive(1);
  EXPECT_FALSE(inj.is_dead(1));
  EXPECT_EQ(inj.disk_fault_at(1, 6), std::nullopt);
  EXPECT_EQ(inj.disk_fault_at(1, 1000), std::nullopt);
  EXPECT_FALSE(inj.is_dead(1));
}

TEST(MpiFault, ReviveDisarmsAPendingDiskFault) {
  FaultPlan plan;
  plan.disk_faults.push_back(
      {/*rank=*/2, /*at_lsn=*/50, DiskFaultKind::kShortWrite});
  FaultInjector inj(plan, 4);
  // Revive before the trigger ever fires: the schedule is cleared, the rank
  // cannot be re-killed by its own (stale) plan after a heal.
  inj.revive(2);
  EXPECT_EQ(inj.disk_fault_at(2, 50), std::nullopt);
  EXPECT_EQ(inj.disk_fault_at(2, 100), std::nullopt);
  EXPECT_FALSE(inj.is_dead(2));
}

TEST(MpiFault, DiskFaultScheduleIsDeterministicAcrossInjectors) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.disk_faults.push_back(
      {/*rank=*/1, /*at_lsn=*/20, DiskFaultKind::kTornWrite});
  // Two injectors fed the same monotone LSN stream fire on the same frame
  // with the same kind — a chaos run replays from its logged plan.
  for (int run = 0; run < 2; ++run) {
    FaultInjector inj(plan, 3);
    std::optional<DiskFaultKind> fired;
    std::uint64_t fired_at = 0;
    for (std::uint64_t lsn = 1; lsn <= 40; ++lsn) {
      const auto k = inj.disk_fault_at(1, lsn);
      if (k.has_value()) {
        fired = k;
        fired_at = lsn;
      }
    }
    ASSERT_TRUE(fired.has_value()) << "run " << run;
    EXPECT_EQ(*fired, DiskFaultKind::kTornWrite) << "run " << run;
    EXPECT_EQ(fired_at, 20u) << "run " << run;
  }
}

}  // namespace
}  // namespace annsim::mpi
