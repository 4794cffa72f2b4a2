// Reliable FIFO point-to-point channel on the simulator (paper §3.1): the
// simulator driver of the channel core in common/arq.h, with both halves in
// one object. The driver adds what only a simulation has:
//  * typed payloads: the sender's slot holds the T, and an arrival moves it
//    across the simulated wire, so nothing is serialized;
//  * a propagation delay and a loss coin tossed for every data launch and
//    every ack (no draw at loss 0, the experiment configuration);
//  * partitions. set_link_down(true) severs the link; link state is sampled
//    when a transmission (data or ack) launches and again when it arrives,
//    so traffic in flight dies inside the partition. set_receiver_down(true)
//    fail-stops the receiver: arrivals are dropped unacked. Both make the
//    endpoint known down, so a faulted window parks its timer; going back
//    up resumes the window (budgets reset, everything retransmitted).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "common/arq.h"
#include "common/check.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace decseq::sim {

using ChannelOptions = arq::Options;
using ChannelFault = arq::Fault;

/// One-directional reliable FIFO channel carrying payloads of type T.
template <typename T>
class Channel {
 public:
  using DeliverFn = std::function<void(T)>;
  using FaultFn = std::function<void(const ChannelFault&)>;

  Channel(Simulator& sim, Rng& rng, Time delay_ms, ChannelOptions options = {})
      : sim_(&sim), delay_ms_(delay_ms), out_(rng, options) {
    DECSEQ_CHECK(delay_ms >= 0.0);
  }

  // In-flight events capture `this`; the channel must stay put once armed.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Payloads arrive in send order, exactly once.
  void set_receiver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Called once per fault transition, from inside the retransmit timer;
  /// it must not destroy the channel.
  void set_fault_callback(FaultFn on_fault) { on_fault_ = std::move(on_fault); }

  /// A crashed sequencing machine whose state survives but which stops
  /// talking.
  void set_receiver_down(bool down) { set_down(receiver_down_, down); }
  [[nodiscard]] bool receiver_down() const { return receiver_down_; }
  void set_link_down(bool down) { set_down(link_down_, down); }
  [[nodiscard]] bool link_down() const { return link_down_; }

  void send(T payload) {
    DECSEQ_CHECK_MSG(deliver_ != nullptr, "channel has no receiver");
    SendIo io{this};
    out_.send(std::move(payload), io);
  }

  [[nodiscard]] bool faulted() const { return out_.faulted(); }
  [[nodiscard]] const std::optional<ChannelFault>& fault() const {
    return out_.fault();
  }
  [[nodiscard]] std::size_t faults_entered() const {
    return out_.faults_entered();
  }
  /// The §3.1 output retransmission buffer's size.
  [[nodiscard]] std::size_t unacked() const { return out_.unacked(); }
  /// Packets buffered at the receiver waiting for earlier ones.
  [[nodiscard]] std::size_t reorder_buffered() const {
    return in_.buffered();
  }
  [[nodiscard]] std::size_t transmissions() const {
    return out_.transmissions();
  }
  [[nodiscard]] std::size_t retransmit_timer_fires() const {
    return out_.retransmit_timer_fires();
  }
  [[nodiscard]] Time delay_ms() const { return delay_ms_; }

  /// Nothing unacked, armed, in flight or faulted: no scheduled event
  /// captures `this`, so the control plane may destroy the channel.
  [[nodiscard]] bool quiescent() const {
    return out_.unacked() == 0 && !timer_.valid() && pending_events_ == 0 &&
           !out_.faulted();
  }

 private:
  /// The core's sender-side actions.
  struct SendIo {
    Channel* ch;
    [[nodiscard]] Time now() const { return ch->sim_->now(); }
    void transmit(std::uint64_t seq, T& /*payload*/) { ch->launch(seq); }
    [[nodiscard]] bool timer_armed() const { return ch->timer_.valid(); }
    void arm_timer(Time deadline) {
      Channel* c = ch;
      c->timer_ = c->sim_->schedule_at(deadline, [c] { c->on_timer(); });
    }
    void disarm_timer() {
      if (!ch->timer_.valid()) return;
      ch->sim_->cancel(ch->timer_);
      ch->timer_ = Simulator::TimerId();
    }
    [[nodiscard]] bool endpoint_down() const {
      return ch->receiver_down_ || ch->link_down_;
    }
    void on_fault(const ChannelFault& fault) {
      if (ch->on_fault_) ch->on_fault_(fault);
    }
  };

  /// The core's receiver-side actions for the arrival of `seq`. The
  /// payload still lives in the sender's unacked slot and moves across; a
  /// later duplicate is never parked or delivered, so the moved-from slot
  /// is never read again.
  struct RecvIo {
    Channel* ch;
    std::uint64_t seq;
    void deliver_arrival() { ch->deliver_(std::move(ch->out_.slot(seq))); }
    [[nodiscard]] T park() { return std::move(ch->out_.slot(seq)); }
    void deliver(T&& payload) { ch->deliver_(std::move(payload)); }
    void ack(std::uint64_t cumulative) { ch->send_ack(cumulative); }
  };

  /// Tossed only when loss is possible, so a loss-free channel's RNG
  /// position is independent of traffic volume.
  [[nodiscard]] bool lost() {
    return out_.options().loss_probability > 0.0 &&
           out_.rng().next_bool(out_.options().loss_probability);
  }

  void launch(std::uint64_t seq) {
    if (link_down_ || lost()) return;  // severed at launch, or dropped
    ++pending_events_;
    sim_->schedule_after(delay_ms_, [this, seq] {
      --pending_events_;
      on_data(seq);
    });
  }

  void on_timer() {
    timer_ = Simulator::TimerId();
    SendIo io{this};
    out_.expire(io);
  }

  void set_down(bool& flag, bool down) {
    const bool recovered = flag && !down;
    flag = down;
    if (!recovered) return;
    SendIo io{this};
    out_.resume(io);
  }

  void on_data(std::uint64_t seq) {
    // Cut inside the partition, or a crashed endpoint: silence, no ack.
    if (link_down_ || receiver_down_) return;
    RecvIo io{this, seq};
    in_.arrive(seq, io);
  }

  void send_ack(std::uint64_t cumulative) {
    if (link_down_ || lost()) return;
    ++pending_events_;
    sim_->schedule_after(delay_ms_, [this, cumulative] {
      --pending_events_;
      if (link_down_) return;  // the ack died inside the partition
      SendIo io{this};
      out_.ack(cumulative, io);
    });
  }

  Simulator* sim_;
  Time delay_ms_;
  DeliverFn deliver_;
  FaultFn on_fault_;
  bool receiver_down_ = false;
  bool link_down_ = false;
  arq::SendWindow<T> out_;
  arq::RecvWindow<T> in_;
  Simulator::TimerId timer_;  ///< the retransmit timer; invalid = disarmed
  std::size_t pending_events_ = 0;  ///< scheduled data/ack events
};

}  // namespace decseq::sim
