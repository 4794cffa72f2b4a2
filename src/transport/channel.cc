#include "transport/channel.h"

#include <algorithm>
#include <utility>

namespace decseq::transport {

// --- SendChannel ---------------------------------------------------------

struct SendChannel::Io {
  SendChannel* ch;
  [[nodiscard]] double now() const { return ch->transport_->now_ms(); }
  void transmit(std::uint64_t /*seq*/, Frame& frame) {
    ch->transport_->send(ch->edge_, frame.data(), frame.size());
  }
  [[nodiscard]] bool timer_armed() const { return ch->timer_.valid(); }
  void arm_timer(double deadline) {
    SendChannel* c = ch;
    c->timer_ = c->transport_->schedule_after(
        std::max(0.0, deadline - now()), [c] { c->on_timer(); });
  }
  void disarm_timer() {
    if (!ch->timer_.valid()) return;
    ch->transport_->cancel(ch->timer_);
    ch->timer_ = Transport::TimerId();
  }
  /// The wire has no oracle for remote failure.
  [[nodiscard]] static bool endpoint_down() { return false; }
  void on_fault(const ChannelFault& fault) {
    if (ch->on_fault_) ch->on_fault_(fault);
  }
};

SendChannel::SendChannel(Transport& transport, Rng& rng, EdgeId edge,
                         ChannelOptions options)
    : transport_(&transport), edge_(edge), out_(rng, options) {
  DECSEQ_CHECK(options.loss_probability == 0.0);
}

SendChannel::~SendChannel() {
  if (timer_.valid()) transport_->cancel(timer_);
}

void SendChannel::send(const std::uint8_t* payload, std::size_t size,
                       std::uint8_t flags) {
  Io io{this};
  // The frame carries the sequence number the window is about to assign.
  out_.send(encode_frame(FrameType::kData, flags, edge_, out_.next_seq(),
                         payload, size),
            io);
}

void SendChannel::on_ack(std::uint64_t cumulative) {
  Io io{this};
  out_.ack(cumulative, io);
}

void SendChannel::on_timer() {
  timer_ = Transport::TimerId();
  Io io{this};
  out_.expire(io);
}

// --- RecvChannel ---------------------------------------------------------

struct RecvChannel::Io {
  RecvChannel* ch;
  std::uint8_t flags;
  const std::uint8_t* payload;
  std::size_t size;
  void deliver_arrival() { ch->deliver_(payload, size, flags); }
  [[nodiscard]] Parked park() const {
    return Parked{flags, std::vector<std::uint8_t>(payload, payload + size)};
  }
  void deliver(Parked&& parked) {
    ch->deliver_(parked.payload.data(), parked.payload.size(), parked.flags);
  }
  void ack(std::uint64_t cumulative) {
    const std::vector<std::uint8_t> frame =
        encode_frame(FrameType::kAck, 0, ch->edge_, cumulative);
    ch->transport_->send(ch->edge_, frame.data(), frame.size());
  }
};

RecvChannel::RecvChannel(Transport& transport, EdgeId edge, DeliverFn deliver)
    : transport_(&transport), edge_(edge), deliver_(std::move(deliver)) {
  DECSEQ_CHECK(deliver_ != nullptr);
}

bool RecvChannel::on_data(std::uint64_t seq, std::uint8_t flags,
                          const std::uint8_t* payload, std::size_t size) {
  Io io{this, flags, payload, size};
  return in_.arrive(seq, io);
}

// --- ChannelSet ----------------------------------------------------------

void ChannelSet::add_sender(SendChannel* channel) {
  DECSEQ_CHECK(channel != nullptr);
  const bool inserted = senders_.emplace(channel->edge(), channel).second;
  DECSEQ_CHECK_MSG(inserted, "duplicate sender for edge " << channel->edge());
}

void ChannelSet::add_receiver(RecvChannel* channel) {
  DECSEQ_CHECK(channel != nullptr);
  const bool inserted = receivers_.emplace(channel->edge(), channel).second;
  DECSEQ_CHECK_MSG(inserted,
                   "duplicate receiver for edge " << channel->edge());
}

bool ChannelSet::handle(const std::uint8_t* data, std::size_t size,
                        const Origin& origin) {
  const std::optional<Frame> frame = decode_frame(data, size);
  if (!frame.has_value()) {
    ++rejected_;
    return false;
  }
  switch (frame->type) {
    case FrameType::kData: {
      const auto it = receivers_.find(frame->edge);
      if (it == receivers_.end()) break;
      if (!it->second->on_data(frame->seq, frame->flags, frame->payload,
                               frame->payload_size)) {
        break;
      }
      ++accepted_;
      return true;
    }
    case FrameType::kAck: {
      const auto it = senders_.find(frame->edge);
      if (it == senders_.end()) break;
      it->second->on_ack(frame->seq);
      ++accepted_;
      return true;
    }
    case FrameType::kJoin:
    case FrameType::kPeers:
      if (control_) {
        control_(*frame, origin);
        ++accepted_;
        return true;
      }
      break;
  }
  ++rejected_;
  return false;
}

}  // namespace decseq::transport
