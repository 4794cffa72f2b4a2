// The sans-IO reliable-channel core (common/arq.h) driven directly by a
// scripted fake driver: no simulator, no transport. The fake records every
// action the core asks for, and the test moves the clock and fires the one
// timer by hand, so each property is checked against exact times and exact
// RNG draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/arq.h"
#include "common/rng.h"

namespace decseq::arq {
namespace {

/// Sender-side fake: a manual clock, one timer slot, and a log.
struct FakeSender {
  double clock = 0.0;
  bool armed = false;
  double deadline = 0.0;
  bool down = false;
  std::vector<std::pair<std::uint64_t, double>> sent;  ///< (seq, time)
  std::vector<Fault> faults;

  [[nodiscard]] double now() const { return clock; }
  void transmit(std::uint64_t seq, int& /*slot*/) {
    sent.emplace_back(seq, clock);
  }
  [[nodiscard]] bool timer_armed() const { return armed; }
  void arm_timer(double at) {
    armed = true;
    deadline = at;
  }
  void disarm_timer() { armed = false; }
  [[nodiscard]] bool endpoint_down() const { return down; }
  void on_fault(const Fault& fault) { faults.push_back(fault); }

  /// Advance the clock to the armed deadline and fire the timer.
  void fire(SendWindow<int>& window) {
    ASSERT_TRUE(armed);
    clock = deadline;
    armed = false;
    window.expire(*this);
  }
};

/// Receiver-side fake for one arrival carrying `value`.
struct FakeArrival {
  int value;
  std::vector<int>* delivered;
  std::vector<std::uint64_t>* acks;
  void deliver_arrival() { delivered->push_back(value); }
  [[nodiscard]] int park() const { return value; }
  void deliver(int&& v) { delivered->push_back(v); }
  void ack(std::uint64_t cumulative) { acks->push_back(cumulative); }
};

Options test_options() {
  Options options;
  options.retransmit_timeout_ms = 10.0;
  options.max_retransmits = 1000;
  options.backoff_factor = 2.0;
  options.max_backoff_factor = 8.0;
  options.backoff_jitter = 0.1;
  return options;
}

TEST(ArqSendWindow, FirstDeadlineIsTheTimeoutWithoutADraw) {
  Rng rng(42);
  Rng reference(42);
  SendWindow<int> window(rng, test_options());
  FakeSender io;
  io.clock = 3.0;
  EXPECT_EQ(window.send(7, io), 0u);
  EXPECT_EQ(window.send(8, io), 1u);
  ASSERT_EQ(io.sent.size(), 2u);
  EXPECT_TRUE(io.armed);
  EXPECT_EQ(io.deadline, 13.0);  // armed once, for the first packet
  EXPECT_EQ(window.unacked(), 2u);
  EXPECT_EQ(rng(), reference()) << "a first transmission drew randomness";
}

TEST(ArqSendWindow, RetransmissionScheduleFollowsSeededBackoff) {
  const Options options = test_options();
  Rng rng(2026);
  Rng reference(2026);
  SendWindow<int> window(rng, options);
  FakeSender io;
  window.send(1, io);

  // Retry k fires at the previous deadline and waits backoff_delay(k)
  // scaled by one jitter draw: 10, 20, 40, 80, then the 80 ms cap.
  double expected = options.retransmit_timeout_ms;
  for (std::uint32_t attempt = 1; attempt <= 7; ++attempt) {
    io.fire(window);
    ASSERT_EQ(io.sent.size(), attempt + 1u);
    EXPECT_EQ(io.sent.back().second, expected) << "retry " << attempt;
    const double base = backoff_delay(options, attempt);
    EXPECT_EQ(base, std::min(10.0 * (1u << (attempt - 1)), 80.0));
    expected += base * (1.0 + reference.next_double() * options.backoff_jitter);
    EXPECT_EQ(io.deadline, expected);
  }
  EXPECT_EQ(window.retransmit_timer_fires(), 7u);
  EXPECT_EQ(window.transmissions(), 8u);
}

TEST(ArqSendWindow, OneJitterDrawPerRetransmissionInWindowOrder) {
  const Options options = test_options();
  Rng rng(9);
  Rng reference(9);
  SendWindow<int> window(rng, options);
  FakeSender io;
  for (int i = 0; i < 3; ++i) window.send(i, io);
  io.fire(window);
  // All three were due at t = 10: retransmitted in window order, each with
  // its own draw, and the timer re-armed at the earliest new deadline.
  ASSERT_EQ(io.sent.size(), 6u);
  double earliest = std::numeric_limits<double>::infinity();
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(io.sent[3 + seq].first, seq);
    earliest = std::min(
        earliest, 10.0 + 10.0 * (1.0 + reference.next_double() * 0.1));
  }
  EXPECT_EQ(io.deadline, earliest);
  EXPECT_EQ(rng(), reference());
}

TEST(ArqSendWindow, FaultEntersOnRetransmissionMaxPlusOne) {
  Options options = test_options();
  options.max_retransmits = 3;
  Rng rng(1);
  SendWindow<int> window(rng, options);
  FakeSender io;
  window.send(5, io);
  for (int retry = 1; retry <= 3; ++retry) {
    io.fire(window);
    EXPECT_FALSE(window.faulted()) << "retry " << retry;
  }
  io.fire(window);
  ASSERT_TRUE(window.faulted());
  ASSERT_EQ(io.faults.size(), 1u);
  EXPECT_EQ(io.faults[0].seq, 0u);
  EXPECT_EQ(io.faults[0].attempts, 4u);
  EXPECT_EQ(io.faults[0].at, io.clock);
  // Once per transition, and the faulted window keeps probing: the wire
  // never knows the far end is down.
  EXPECT_TRUE(io.armed);
  io.fire(window);
  io.fire(window);
  EXPECT_EQ(io.faults.size(), 1u);
  EXPECT_EQ(window.faults_entered(), 1u);
  EXPECT_EQ(io.sent.size(), 7u);
}

TEST(ArqSendWindow, ParksOnlyWhenTheEndpointIsKnownDown) {
  Options options = test_options();
  options.max_retransmits = 1;
  Rng rng(3);
  SendWindow<int> window(rng, options);
  FakeSender io;
  window.send(1, io);
  io.down = true;
  io.fire(window);  // retry 1: within budget, known-down or not
  EXPECT_TRUE(io.armed);
  io.fire(window);  // retry 2: fault, and the endpoint is known down
  EXPECT_TRUE(window.faulted());
  EXPECT_FALSE(io.armed) << "a faulted window to a down endpoint parks";

  // The same fault with the endpoint not known down keeps probing.
  Rng rng2(3);
  SendWindow<int> probing(rng2, options);
  FakeSender io2;
  probing.send(1, io2);
  io2.fire(probing);
  io2.fire(probing);
  EXPECT_TRUE(probing.faulted());
  EXPECT_TRUE(io2.armed);
}

TEST(ArqSendWindow, ResumeResetsAttemptBudgetsAndRetransmitsTheWindow) {
  Options options = test_options();
  options.max_retransmits = 2;
  options.backoff_jitter = 0.0;  // keep the two packets co-timed
  Rng rng(4);
  SendWindow<int> window(rng, options);
  FakeSender io;
  window.send(1, io);
  window.send(2, io);
  io.down = true;
  for (int i = 0; i < 3; ++i) io.fire(window);
  ASSERT_TRUE(window.faulted());
  ASSERT_FALSE(io.armed);

  io.down = false;
  io.clock = 500.0;
  const std::size_t before = io.sent.size();
  window.resume(io);
  EXPECT_FALSE(window.faulted());
  ASSERT_EQ(io.sent.size(), before + 2);
  EXPECT_EQ(io.sent[before].first, 0u);
  EXPECT_EQ(io.sent[before + 1].first, 1u);
  EXPECT_TRUE(io.armed);
  EXPECT_EQ(io.deadline, 510.0) << "resume re-arms at one plain timeout";

  // A fresh budget: two more retries stay healthy, the third faults again.
  io.fire(window);
  io.fire(window);
  EXPECT_FALSE(window.faulted());
  io.fire(window);
  EXPECT_TRUE(window.faulted());
  EXPECT_EQ(window.faults_entered(), 2u);
}

TEST(ArqSendWindow, CumulativeAckReleasesAndDrainDisarms) {
  Options options = test_options();
  options.max_retransmits = 0;
  Rng rng(5);
  SendWindow<int> window(rng, options);
  FakeSender io;
  for (int i = 0; i < 5; ++i) window.send(i, io);
  io.fire(window);
  ASSERT_TRUE(window.faulted());

  window.ack(3, io);
  EXPECT_EQ(window.unacked(), 2u);
  EXPECT_EQ(window.slot(3), 3);
  EXPECT_TRUE(io.armed);
  EXPECT_TRUE(window.faulted()) << "only a drained window clears a fault";
  window.ack(2, io);  // stale ack: nothing to release
  EXPECT_EQ(window.unacked(), 2u);
  window.ack(5, io);
  EXPECT_EQ(window.unacked(), 0u);
  EXPECT_FALSE(io.armed);
  EXPECT_FALSE(window.faulted());

  // An expiry racing the draining ack does nothing.
  const std::size_t sent = io.sent.size();
  window.expire(io);
  EXPECT_EQ(io.sent.size(), sent);
  EXPECT_FALSE(io.armed);
}

TEST(ArqRecvWindow, ReleasesInOrderAndAcksEveryArrival) {
  RecvWindow<int> window;
  std::vector<int> delivered;
  std::vector<std::uint64_t> acks;
  const auto arrive = [&](std::uint64_t seq) {
    FakeArrival io{static_cast<int>(seq), &delivered, &acks};
    return window.arrive(seq, io);
  };
  EXPECT_TRUE(arrive(2));
  EXPECT_TRUE(arrive(4));
  EXPECT_EQ(window.buffered(), 2u);
  EXPECT_TRUE(delivered.empty());
  EXPECT_TRUE(arrive(0));  // releases 0 only: 1 is still missing
  EXPECT_TRUE(arrive(1));  // releases 1, 2
  EXPECT_TRUE(arrive(3));  // releases 3, 4
  EXPECT_EQ(delivered, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{0, 0, 1, 3, 5}));
  EXPECT_EQ(window.buffered(), 0u);
  EXPECT_EQ(window.next(), 5u);
}

TEST(ArqRecvWindow, DuplicatesAreReackedNotRedelivered) {
  RecvWindow<int> window;
  std::vector<int> delivered;
  std::vector<std::uint64_t> acks;
  const auto arrive = [&](std::uint64_t seq) {
    FakeArrival io{static_cast<int>(seq), &delivered, &acks};
    return window.arrive(seq, io);
  };
  arrive(0);
  arrive(0);  // already delivered
  arrive(3);
  arrive(3);  // already parked
  EXPECT_EQ(delivered, (std::vector<int>{0}));
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(window.buffered(), 1u);
}

TEST(ArqRecvWindow, BeyondTheBoundIsDroppedButAcked) {
  RecvWindow<int> window(/*max_ahead=*/4);
  std::vector<int> delivered;
  std::vector<std::uint64_t> acks;
  FakeArrival far{9, &delivered, &acks};
  EXPECT_FALSE(window.arrive(4, far));
  EXPECT_EQ(window.window_overruns(), 1u);
  EXPECT_EQ(window.buffered(), 0u);
  FakeArrival edge{3, &delivered, &acks};
  EXPECT_TRUE(window.arrive(3, edge));
  EXPECT_EQ(window.buffered(), 1u);
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{0, 0}));
  EXPECT_TRUE(delivered.empty());
}

}  // namespace
}  // namespace decseq::arq
