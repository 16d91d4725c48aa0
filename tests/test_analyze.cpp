// Lock-order / blocking-hazard analyzer tests. Every case arms the
// analyzer with analyze::ScopedArm (programmatic arm + reset on scope
// exit), seeds a known-bad — or known-good — acquisition pattern on
// short-lived threads, and asserts on the recorded findings. The seeded
// inversions never actually wedge: the threads are sequenced with plain
// synchronization so each acquisition completes, which is exactly the
// schedule where only an ORDER analyzer (not TSan, not a stuck run) can
// see the latent deadlock.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/analyze.hpp"
#include "runtime/mutex.hpp"

namespace stgraph {
namespace {

using analyze::ScopedArm;

/// Sequencer for seeding exact interleavings: step(n) parks until the
/// global step counter reaches n. Uses raw std synchronization so the
/// harness itself is invisible to the analyzer under test.
class Steps {
 public:
  void reach(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return step_ >= n; });
  }
  void advance(int n) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      step_ = n;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int step_ = 0;
};

TEST(Analyze, DisarmedRecordsNothing) {
  if (analyze::armed())
    GTEST_SKIP() << "suite launched with STGRAPH_DEADLOCK=1; the disarmed "
                    "behavior cannot be observed";
  Mutex a{"Analyze.Disarmed.a"};
  Mutex b{"Analyze.Disarmed.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(analyze::cycle_count(), 0u);
  EXPECT_EQ(analyze::hazard_count(), 0u);
}

TEST(Analyze, AbbaInversionReportsCycleWithStacksAndSites) {
  ScopedArm arm;
  Mutex a{"Analyze.ABBA.a"};
  Mutex b{"Analyze.ABBA.b"};
  Steps seq;

  // Thread 1 takes a -> b, thread 2 takes b -> a, strictly sequenced so
  // both acquisitions succeed (the latent bug, not the hang).
  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
    seq.advance(1);
  });
  std::thread t2([&] {
    seq.reach(1);
    MutexLock lb(b);
    MutexLock la(a);
  });
  t1.join();
  t2.join();

  ASSERT_EQ(analyze::cycle_count(), 1u);
  const std::vector<analyze::LockCycle> cycles = analyze::cycles();
  ASSERT_EQ(cycles.size(), 1u);
  const analyze::LockCycle& c = cycles[0];
  ASSERT_EQ(c.edges.size(), 2u);

  // Both site labels appear, in cycle order (a->b then b->a or rotated).
  std::vector<std::string> froms;
  for (const auto& e : c.edges) froms.push_back(e.from_site);
  EXPECT_NE(std::find(froms.begin(), froms.end(), "Analyze.ABBA.a"),
            froms.end());
  EXPECT_NE(std::find(froms.begin(), froms.end(), "Analyze.ABBA.b"),
            froms.end());
  for (const auto& e : c.edges) {
    // Both acquisition stacks ride on every edge: the stack that took the
    // held lock and the stack attempting the one that closed the cycle.
    EXPECT_FALSE(e.holder_stack.empty()) << e.from_site << "->" << e.to_site;
    EXPECT_FALSE(e.acquirer_stack.empty()) << e.from_site << "->" << e.to_site;
    EXPECT_NE(e.thread_id, 0u);
  }
  // The human-readable rendering names both sites.
  const std::string text = c.to_string();
  EXPECT_NE(text.find("Analyze.ABBA.a"), std::string::npos);
  EXPECT_NE(text.find("Analyze.ABBA.b"), std::string::npos);

  // The verify::Report plumbing carries the finding under its checker tag.
  const verify::Report r = analyze::as_report();
  EXPECT_FALSE(r.ok());
  ASSERT_FALSE(r.findings().empty());
  EXPECT_EQ(r.findings()[0].checker, "analyze.lock-order");
}

TEST(Analyze, ThreeLockCycleReportsAllThreeSites) {
  ScopedArm arm;
  Mutex a{"Analyze.Ring.a"};
  Mutex b{"Analyze.Ring.b"};
  Mutex c{"Analyze.Ring.c"};
  Steps seq;

  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
    seq.advance(1);
  });
  std::thread t2([&] {
    seq.reach(1);
    MutexLock lb(b);
    MutexLock lc(c);
    seq.advance(2);
  });
  std::thread t3([&] {
    seq.reach(2);
    MutexLock lc(c);
    MutexLock la(a);
  });
  t1.join();
  t2.join();
  t3.join();

  ASSERT_EQ(analyze::cycle_count(), 1u);
  const analyze::LockCycle ring = analyze::cycles()[0];
  ASSERT_EQ(ring.edges.size(), 3u);
  const std::string text = ring.to_string();
  EXPECT_NE(text.find("Analyze.Ring.a"), std::string::npos);
  EXPECT_NE(text.find("Analyze.Ring.b"), std::string::npos);
  EXPECT_NE(text.find("Analyze.Ring.c"), std::string::npos);
}

TEST(Analyze, ConsistentOrderIsClean) {
  ScopedArm arm;
  Mutex a{"Analyze.Ordered.a"};
  Mutex b{"Analyze.Ordered.b"};
  for (int i = 0; i < 4; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_EQ(analyze::cycle_count(), 0u);
}

TEST(Analyze, TryLockInversionCreatesNoEdge) {
  ScopedArm arm;
  Mutex a{"Analyze.Try.a"};
  Mutex b{"Analyze.Try.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);  // order a -> b recorded
  }
  {
    MutexLock lb(b);
    // A try_lock cannot wedge: on contention it gives up instead of
    // blocking, so taking a under b this way must NOT close a cycle.
    ASSERT_TRUE(a.try_lock());
    a.unlock();
  }
  EXPECT_EQ(analyze::cycle_count(), 0u);

  // Same for the deadline-bounded scoped lock.
  {
    MutexLock lb(b);
    MutexTimedLock la(a, std::chrono::milliseconds(50));
    ASSERT_TRUE(la.owns());
  }
  EXPECT_EQ(analyze::cycle_count(), 0u);
}

TEST(Analyze, SameInstanceRelockIsASelfCycle) {
  ScopedArm arm;
  Mutex a{"Analyze.Relock.a"};
  a.lock();
  // A second blocking acquisition of the SAME instance on this thread is a
  // guaranteed self-deadlock. Calling Mutex::lock() would wedge the test
  // (the native timed_mutex does not detect relocking), so drive the
  // attempt hook directly — exactly what lock() runs BEFORE it blocks,
  // which is why a real relock still gets its report out.
  analyze::on_lock_attempt(&a, a.site());
  a.unlock();
  ASSERT_EQ(analyze::cycle_count(), 1u);
  const analyze::LockCycle c = analyze::cycles()[0];
  ASSERT_EQ(c.edges.size(), 1u);
  EXPECT_EQ(c.edges[0].from_site, "Analyze.Relock.a");
  EXPECT_EQ(c.edges[0].to_site, "Analyze.Relock.a");
}

TEST(Analyze, CvWaitHoldingSecondLockIsAHazard) {
  ScopedArm arm;
  Mutex outer{"Analyze.CvHazard.outer"};
  Mutex inner{"Analyze.CvHazard.inner"};
  ConditionVariable cv;
  std::atomic<bool> go{false};

  std::thread waiter([&] {
    MutexLock lo(outer);  // the extra lock a cv-wait must not sit on
    MutexLock li(inner);
    // Wait at least once: the waker may set `go` before this thread gets
    // here, and a skipped wait would record no hazard.
    do {
      cv.wait_for(li, std::chrono::milliseconds(5));
    } while (!go.load());
  });
  std::thread waker([&] {
    go.store(true);
    cv.notify_all();
  });
  waiter.join();
  waker.join();

  ASSERT_GE(analyze::hazard_count(), 1u);
  const std::vector<analyze::BlockingHazard> hs = analyze::hazards();
  bool found = false;
  for (const auto& h : hs) {
    if (h.what != "cv-wait-for") continue;
    for (const auto& s : h.held_sites)
      if (s == "Analyze.CvHazard.outer") found = true;
    EXPECT_FALSE(h.stack.empty());
  }
  EXPECT_TRUE(found) << analyze::format_report();

  const verify::Report r = analyze::as_report();
  EXPECT_FALSE(r.ok());
  bool tagged = false;
  for (const auto& f : r.findings())
    if (f.checker == "analyze.blocking-hazard") tagged = true;
  EXPECT_TRUE(tagged);
}

TEST(Analyze, CvWaitHoldingOnlyTheWaitedLockIsClean) {
  ScopedArm arm;
  Mutex mu{"Analyze.CvClean.mu"};
  ConditionVariable cv;
  std::atomic<bool> go{false};
  std::thread waiter([&] {
    MutexLock lk(mu);
    while (!go.load()) cv.wait_for(lk, std::chrono::milliseconds(5));
  });
  go.store(true);
  cv.notify_all();
  waiter.join();
  EXPECT_EQ(analyze::hazard_count(), 0u);
}

TEST(Analyze, BlockingCallUnderLockIsAHazard) {
  ScopedArm arm;
  Mutex mu{"Analyze.Blocking.mu"};
  {
    MutexLock lk(mu);
    analyze::on_blocking_call("file-io(test)");
  }
  ASSERT_EQ(analyze::hazard_count(), 1u);
  const analyze::BlockingHazard h = analyze::hazards()[0];
  EXPECT_EQ(h.what, "file-io(test)");
  ASSERT_EQ(h.held_sites.size(), 1u);
  EXPECT_EQ(h.held_sites[0], "Analyze.Blocking.mu");
}

TEST(Analyze, BlockingOkScopeExemptsTheCall) {
  ScopedArm arm;
  Mutex mu{"Analyze.Allowed.mu"};
  {
    MutexLock lk(mu);
    STG_BLOCKING_OK("test: this blocking call under mu is the design");
    analyze::on_blocking_call("file-io(test)");
  }
  EXPECT_EQ(analyze::hazard_count(), 0u);

  // The exemption is scoped: the same call outside the scope reports.
  {
    MutexLock lk(mu);
    analyze::on_blocking_call("file-io(test)");
  }
  EXPECT_EQ(analyze::hazard_count(), 1u);
}

TEST(Analyze, BlockingCallWithNoLocksHeldIsClean) {
  ScopedArm arm;
  analyze::on_blocking_call("epoll_wait");
  analyze::on_blocking_call("thread-join");
  EXPECT_EQ(analyze::hazard_count(), 0u);
}

TEST(Analyze, DuplicateCyclesReportOnce) {
  ScopedArm arm;
  Mutex a{"Analyze.Dup.a"};
  Mutex b{"Analyze.Dup.b"};
  for (int round = 0; round < 3; ++round) {
    Steps seq;
    std::thread t1([&] {
      MutexLock la(a);
      MutexLock lb(b);
      seq.advance(1);
    });
    std::thread t2([&] {
      seq.reach(1);
      MutexLock lb(b);
      MutexLock la(a);
    });
    t1.join();
    t2.join();
  }
  EXPECT_EQ(analyze::cycle_count(), 1u);
}

TEST(Analyze, UnlabeledInstancesDoNotAliasIntoFalseCycles) {
  ScopedArm arm;
  // Two separate unlabeled mutexes taken in opposite orders by design
  // would be a real inversion; but two pairs of DISTINCT unlabeled
  // instances each taken in one order must not alias into a cycle the way
  // a shared per-class label would merge them.
  Mutex a1, b1;  // pair 1: a1 -> b1
  Mutex a2, b2;  // pair 2: b2 -> a2 — unrelated instances
  {
    MutexLock x(a1);
    MutexLock y(b1);
  }
  {
    MutexLock y(b2);
    MutexLock x(a2);
  }
  EXPECT_EQ(analyze::cycle_count(), 0u);
}

TEST(Analyze, ResetClearsFindingsAndOrders) {
  ScopedArm arm;
  Mutex a{"Analyze.Reset.a"};
  Mutex b{"Analyze.Reset.b"};
  Steps seq;
  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
    seq.advance(1);
  });
  std::thread t2([&] {
    seq.reach(1);
    MutexLock lb(b);
    MutexLock la(a);
  });
  t1.join();
  t2.join();
  ASSERT_EQ(analyze::cycle_count(), 1u);

  analyze::reset();
  EXPECT_EQ(analyze::cycle_count(), 0u);
  EXPECT_EQ(analyze::hazard_count(), 0u);
  // The graph is empty again: one leg of the old inversion alone is clean.
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(analyze::cycle_count(), 0u);
}

TEST(Analyze, FormatReportNamesEverything) {
  ScopedArm arm;
  Mutex a{"Analyze.Report.a"};
  Mutex b{"Analyze.Report.b"};
  Steps seq;
  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
    {
      STG_BLOCKING_OK("test: exempted on purpose");
      analyze::on_blocking_call("file-io(exempt)");
    }
    analyze::on_blocking_call("file-io(caught)");
    seq.advance(1);
  });
  std::thread t2([&] {
    seq.reach(1);
    MutexLock lb(b);
    MutexLock la(a);
  });
  t1.join();
  t2.join();

  const std::string report = analyze::format_report();
  EXPECT_NE(report.find("Analyze.Report.a"), std::string::npos);
  EXPECT_NE(report.find("Analyze.Report.b"), std::string::npos);
  EXPECT_NE(report.find("file-io(caught)"), std::string::npos);
  EXPECT_EQ(report.find("file-io(exempt)"), std::string::npos);
}

}  // namespace
}  // namespace stgraph
