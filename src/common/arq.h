// The reliable FIFO channel of paper §3.1 as one sans-IO core: sequence
// numbers, an output retransmission buffer released by cumulative acks,
// and a receiver that delivers strictly in send order. It is the only copy
// of that algorithm, run by two drivers: sim::Channel<T> (sim/channel.h)
// and transport::SendChannel/RecvChannel (transport/channel.h). The core
// owns no clock, scheduler or socket. Each method takes an `Io` template
// argument that reads the time and performs the actions, resolved at
// compile time: no virtual call or std::function on the per-packet path.
//
// SendWindow keeps the unacked packets in a flat ring, each with its own
// deadline, while the driver arms one timer at the earliest of them: armed
// when a packet enters an idle window, cancelled when an ack drains it.
// Retry i of a packet waits rto * backoff_factor^(i-1), capped at
// max_backoff_factor * rto, times one jitter draw from [1, 1 +
// backoff_jitter); the first deadline is rto with no draw, so a loss-free
// run consumes no randomness. Exhausting max_retransmits surfaces a fault
// (once per transition) and keeps probing at the capped cadence, unless
// the driver knows the far end is down: then the timer parks until
// resume(), which resets every budget and resends the window.
//
// RecvWindow parks out-of-order arrivals in a reorder ring and releases
// them in order; every arrival, duplicates included, is answered with the
// cumulative ack. An optional bound drops (but acks) arrivals too far
// ahead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/rng.h"

namespace decseq::arq {

struct Options {
  /// Per-transmission drop chance; simulator driver only.
  double loss_probability = 0.0;
  double retransmit_timeout_ms = 200.0;
  /// Retransmissions of one packet before the fault state.
  std::size_t max_retransmits = 100;
  double backoff_factor = 2.0;
  /// Backoff ceiling as a multiple of retransmit_timeout_ms.
  double max_backoff_factor = 64.0;
  double backoff_jitter = 0.1;
};

/// The packet whose retransmission budget ran out, and when.
struct Fault {
  std::uint64_t seq = 0;
  std::uint32_t attempts = 0;
  double at = 0.0;
};

/// Delay before retry `attempts` of one packet, before jitter.
[[nodiscard]] inline double backoff_delay(const Options& options,
                                          std::uint32_t attempts) {
  const double cap =
      options.retransmit_timeout_ms * options.max_backoff_factor;
  double delay = options.retransmit_timeout_ms;
  for (std::uint32_t i = 1; i < attempts && delay < cap; ++i) {
    delay *= options.backoff_factor;
  }
  return std::min(delay, cap);
}

/// Sender half; `Slot` is what the driver keeps per unacked packet. Io:
/// now(), transmit(seq, Slot&), timer_armed(), arm_timer(deadline),
/// disarm_timer() (no-op when disarmed), endpoint_down(), on_fault(Fault).
template <typename Slot>
class SendWindow {
 public:
  SendWindow(Rng& rng, const Options& options)
      : rng_(&rng), options_(options) {
    DECSEQ_CHECK(options_.backoff_factor >= 1.0);
    DECSEQ_CHECK(options_.max_backoff_factor >= 1.0);
    DECSEQ_CHECK(options_.backoff_jitter >= 0.0);
  }

  /// Number `slot`, transmit it, and arm the timer if it was idle.
  template <typename Io>
  std::uint64_t send(Slot slot, Io& io) {
    const std::uint64_t seq = next_seq_++;
    out_.push_back(
        Packet{std::move(slot), io.now() + options_.retransmit_timeout_ms});
    transmit(seq, out_.back().slot, io);
    if (!io.timer_armed()) io.arm_timer(out_.back().deadline);
    return seq;
  }

  /// Release every packet below `cumulative`. A drained window disarms
  /// the timer and clears any fault.
  template <typename Io>
  void ack(std::uint64_t cumulative, Io& io) {
    while (!out_.empty() && base_ < cumulative) {
      out_.pop_front();
      ++base_;
    }
    if (out_.empty()) {
      fault_.reset();
      io.disarm_timer();
    }
  }

  /// The driver's timer fired (its handle already cleared): retransmit
  /// every overdue packet in window order, re-arm at the earliest deadline.
  template <typename Io>
  void expire(Io& io) {
    if (out_.empty()) return;  // raced with the draining ack
    const double now = io.now();
    bool any_due = false;
    double earliest = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < out_.size(); ++i) {
      Packet& packet = out_[i];
      if (packet.deadline <= now) {
        any_due = true;
        const std::uint32_t attempts = ++packet.attempts;
        if (attempts > options_.max_retransmits && !fault_.has_value()) {
          fault_ = Fault{base_ + i, attempts, now};
          ++faults_entered_;
          io.on_fault(*fault_);
        }
        transmit(base_ + i, packet.slot, io);
        packet.deadline = now + backoff_delay(options_, attempts) *
                                    (1.0 + rng_->next_double() *
                                               options_.backoff_jitter);
      }
      earliest = std::min(earliest, packet.deadline);
    }
    if (any_due) ++retransmit_timer_fires_;
    // Probing a known-down endpoint would keep the driver busy forever:
    // park until resume(). Otherwise only a delivered probe clears it.
    if (fault_.has_value() && io.endpoint_down()) return;
    io.arm_timer(earliest);
  }

  /// The far end is reachable again: clear any fault, reset every attempt
  /// budget, and retransmit the whole window now.
  template <typename Io>
  void resume(Io& io) {
    fault_.reset();
    if (out_.empty()) return;
    const double now = io.now();
    for (std::size_t i = 0; i < out_.size(); ++i) {
      out_[i].attempts = 0;
      out_[i].deadline = now + options_.retransmit_timeout_ms;
      transmit(base_ + i, out_[i].slot, io);
    }
    io.disarm_timer();
    io.arm_timer(now + options_.retransmit_timeout_ms);
  }

  /// The slot of unacked packet `seq`.
  [[nodiscard]] Slot& slot(std::uint64_t seq) {
    DECSEQ_CHECK(seq >= base_ && seq - base_ < out_.size());
    return out_[static_cast<std::size_t>(seq - base_)].slot;
  }

  /// The sequence number the next send() assigns.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }
  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] Rng& rng() { return *rng_; }
  [[nodiscard]] std::size_t unacked() const { return out_.size(); }
  [[nodiscard]] bool faulted() const { return fault_.has_value(); }
  [[nodiscard]] const std::optional<Fault>& fault() const { return fault_; }
  [[nodiscard]] std::size_t faults_entered() const { return faults_entered_; }
  [[nodiscard]] std::size_t transmissions() const { return transmissions_; }
  /// Timer expiries that retransmitted at least one packet.
  [[nodiscard]] std::size_t retransmit_timer_fires() const {
    return retransmit_timer_fires_;
  }

 private:
  struct Packet {
    Slot slot;
    double deadline = 0.0;       ///< last transmission + current backoff
    std::uint32_t attempts = 0;  ///< retransmissions so far
  };

  template <typename Io>
  void transmit(std::uint64_t seq, Slot& slot, Io& io) {
    ++transmissions_;
    io.transmit(seq, slot);
  }

  Rng* rng_;
  Options options_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t base_ = 0;  ///< sequence number of out_.front()
  common::RingBuffer<Packet> out_;
  std::optional<Fault> fault_;
  std::size_t faults_entered_ = 0;
  std::size_t transmissions_ = 0;
  std::size_t retransmit_timer_fires_ = 0;
};

/// Receiver half; `Slot` is what the driver parks for an out-of-order
/// arrival. The Io of arrive() describes that arrival: deliver_arrival()
/// hands it up directly, park() returns its Slot, deliver(Slot&&) hands up
/// a parked one, ack(cumulative) answers.
template <typename Slot>
class RecvWindow {
 public:
  /// Arrivals `max_ahead` or more past the next expected one are dropped.
  explicit RecvWindow(
      std::uint64_t max_ahead = std::numeric_limits<std::uint64_t>::max())
      : max_ahead_(max_ahead) {}

  /// Deliver whatever `seq` releases, in order, then ack cumulatively.
  /// Returns false iff it landed beyond the window.
  template <typename Io>
  bool arrive(std::uint64_t seq, Io& io) {
    if (seq < next_) {  // already delivered; its ack was lost
      io.ack(next_);
      return true;
    }
    const std::uint64_t ahead = seq - next_;
    if (ahead >= max_ahead_) {  // dropped; the ack still moves the sender
      ++window_overruns_;
      io.ack(next_);
      return false;
    }
    // Fast path, the loss-free steady state: skip the reorder ring.
    if (ahead == 0 && reorder_.empty()) {
      ++next_;
      io.deliver_arrival();
      io.ack(next_);
      return true;
    }
    const auto index = static_cast<std::size_t>(ahead);
    if (index >= reorder_.size()) reorder_.resize(index + 1);
    if (!reorder_[index].has_value()) {
      reorder_[index].emplace(io.park());
      ++buffered_;
    }
    while (!reorder_.empty() && reorder_.front().has_value()) {
      Slot slot = std::move(*reorder_.front());
      reorder_.pop_front();
      --buffered_;
      ++next_;
      io.deliver(std::move(slot));
    }
    io.ack(next_);
    return true;
  }

  /// The next sequence number to deliver: the cumulative ack.
  [[nodiscard]] std::uint64_t next() const { return next_; }
  [[nodiscard]] std::size_t buffered() const { return buffered_; }
  [[nodiscard]] std::size_t window_overruns() const {
    return window_overruns_;
  }

 private:
  std::uint64_t max_ahead_;
  std::uint64_t next_ = 0;
  common::RingBuffer<std::optional<Slot>> reorder_;  ///< [i] = next_ + i
  std::size_t buffered_ = 0;
  std::size_t window_overruns_ = 0;
};

}  // namespace decseq::arq
