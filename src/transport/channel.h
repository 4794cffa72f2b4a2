// Reliable FIFO channels over an unreliable datagram transport: the wire
// driver of the channel core in common/arq.h (sim::Channel<T> is the
// other). Sender and receiver live in different processes, so the core's
// two halves are two objects here, and the driver adds what the wire needs:
//  * every packet is a frame (frame.h); the sender's slot is the encoded
//    DATA frame (encode once, resend bytes), a parked arrival a copy of its
//    payload; timers run on the Transport's clock;
//  * a real transport cannot know the far end is down, so a faulted
//    channel keeps probing at the capped cadence until an ack drains it;
//  * the receiver bounds its reorder window (kMaxReorderWindow): a valid
//    CRC does not make a sequence number sane, and a peer's seq must not
//    size an allocation.
//
// ChannelSet is the per-endpoint demultiplexer: it parses each datagram
// once, routes DATA to the edge's receiver and ACK to its sender, hands
// JOIN/PEERS to a control hook, and counts everything it rejects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/arq.h"
#include "common/check.h"
#include "common/rng.h"
#include "transport/frame.h"
#include "transport/transport.h"

namespace decseq::transport {

/// loss_probability must stay 0 on the wire.
using ChannelOptions = arq::Options;
using ChannelFault = arq::Fault;

/// Sender half: numbers payloads, buffers the encoded frames until the
/// cumulative ack releases them, retransmits with backoff.
class SendChannel {
 public:
  using FaultFn = std::function<void(const ChannelFault&)>;

  SendChannel(Transport& transport, Rng& rng, EdgeId edge,
              ChannelOptions options = {});
  SendChannel(const SendChannel&) = delete;
  SendChannel& operator=(const SendChannel&) = delete;
  ~SendChannel();

  /// Queue `payload` for exactly-once in-order delivery at the peer.
  /// `flags` rides in the frame header (kFrameFlagFin for FIN payloads).
  void send(const std::uint8_t* payload, std::size_t size,
            std::uint8_t flags = 0);

  /// The peer's cumulative ack arrived.
  void on_ack(std::uint64_t cumulative);

  void set_fault_callback(FaultFn on_fault) { on_fault_ = std::move(on_fault); }

  [[nodiscard]] EdgeId edge() const { return edge_; }
  [[nodiscard]] bool faulted() const { return out_.faulted(); }
  [[nodiscard]] const std::optional<ChannelFault>& fault() const {
    return out_.fault();
  }
  [[nodiscard]] std::size_t unacked() const { return out_.unacked(); }
  [[nodiscard]] std::size_t transmissions() const {
    return out_.transmissions();
  }
  [[nodiscard]] std::size_t retransmit_timer_fires() const {
    return out_.retransmit_timer_fires();
  }

 private:
  using Frame = std::vector<std::uint8_t>;  ///< full encoded DATA frame
  struct Io;

  void on_timer();

  Transport* transport_;
  EdgeId edge_;
  FaultFn on_fault_;
  arq::SendWindow<Frame> out_;
  Transport::TimerId timer_;
};

/// Receiver half: delivers exactly once in send order, acks every arrival.
class RecvChannel {
 public:
  using DeliverFn = std::function<void(const std::uint8_t* payload,
                                       std::size_t size, std::uint8_t flags)>;

  /// How far past the next expected sequence number an arrival may land
  /// and still be parked; bounds memory against insane seq values.
  static constexpr std::uint64_t kMaxReorderWindow = 4096;

  RecvChannel(Transport& transport, EdgeId edge, DeliverFn deliver);
  RecvChannel(const RecvChannel&) = delete;
  RecvChannel& operator=(const RecvChannel&) = delete;

  /// A DATA frame for this edge arrived. Returns false iff it was dropped
  /// beyond the reorder window (the drop is still acked cumulatively).
  bool on_data(std::uint64_t seq, std::uint8_t flags,
               const std::uint8_t* payload, std::size_t size);

  [[nodiscard]] EdgeId edge() const { return edge_; }
  [[nodiscard]] std::size_t reorder_buffered() const {
    return in_.buffered();
  }
  [[nodiscard]] std::size_t window_overruns() const {
    return in_.window_overruns();
  }
  [[nodiscard]] std::uint64_t next_deliver_seq() const { return in_.next(); }

 private:
  struct Parked {
    std::uint8_t flags = 0;
    std::vector<std::uint8_t> payload;
  };
  struct Io;

  Transport* transport_;
  EdgeId edge_;
  DeliverFn deliver_;
  arq::RecvWindow<Parked> in_{kMaxReorderWindow};
};

/// Per-endpoint datagram demultiplexer: edge id → channel half.
class ChannelSet {
 public:
  using ControlFn = std::function<void(const Frame&, const Origin&)>;

  void add_sender(SendChannel* channel);
  void add_receiver(RecvChannel* channel);
  /// Bootstrap frames (JOIN/PEERS) land here instead of a channel.
  void set_control_handler(ControlFn handler) {
    control_ = std::move(handler);
  }

  /// Parse and route one datagram. Returns true iff the frame decoded and
  /// was accepted by its channel (or the control hook).
  bool handle(const std::uint8_t* data, std::size_t size,
              const Origin& origin);

  /// Datagrams dropped: undecodable frames, unknown edges, DATA beyond the
  /// receiver's reorder window. The robustness tests pin that garbage only
  /// ever increments this — it never reaches a channel or kills the
  /// process.
  [[nodiscard]] std::size_t rejected() const { return rejected_; }
  [[nodiscard]] std::size_t accepted() const { return accepted_; }

 private:
  std::unordered_map<EdgeId, SendChannel*> senders_;
  std::unordered_map<EdgeId, RecvChannel*> receivers_;
  ControlFn control_;
  std::size_t rejected_ = 0;
  std::size_t accepted_ = 0;
};

}  // namespace decseq::transport
