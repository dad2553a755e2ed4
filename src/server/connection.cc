#include "src/server/connection.h"

#include "src/common/logging.h"

namespace aud {

void ClientConnection::set_metrics(ServerMetrics* metrics) {
  metrics_ = metrics;
  egress_.set_bytes_gauge(metrics != nullptr ? &metrics->egress_queued_bytes
                                             : nullptr);
}

ClientConnection::DrainStatus ClientConnection::DrainEgress() {
  flush_requested_.store(false);
  auto& tracer = obs::TraceRegistry::Instance();
  while (true) {
    if (wire_off_ >= wire_buf_.size()) {
      EgressFrame frame;
      if (!egress_.TryPop(&frame)) {
        return DrainStatus::kIdle;
      }
      wire_buf_ = FrameMessage(frame.type, frame.code, frame.sequence, frame.payload);
      wire_off_ = 0;
      wire_trace_ = frame.trace;
      wire_parent_ = frame.parent;
      wire_t0_ = frame.trace != 0 ? tracer.NowUs() : 0;
    }
    while (wire_off_ < wire_buf_.size()) {
      IoResult r = stream_->WriteSome(
          std::span<const uint8_t>(wire_buf_).subspan(wire_off_));
      if (r.status == IoStatus::kWouldBlock) {
        return DrainStatus::kBlocked;
      }
      if (r.status != IoStatus::kOk) {
        // Transport dead: the owning loop tears the connection down.
        MarkClosed();
        egress_.CloseNow();
        return DrainStatus::kError;
      }
      wire_off_ += r.bytes;
    }
    const size_t frame_bytes = wire_buf_.size();
    if (wire_trace_ != 0) {
      tracer.Span(obs::TraceReason::kSpanWrite, wire_trace_, wire_parent_, wire_t0_,
                  static_cast<uint32_t>(tracer.NowUs() - wire_t0_),
                  static_cast<uint32_t>(frame_bytes));
      if (metrics_ != nullptr) {
        metrics_->trace_spans.Increment();
      }
    }
    stats_.bytes_out.Increment(frame_bytes);
    if (metrics_ != nullptr) {
      metrics_->bytes_out.Increment(frame_bytes);
    }
    wire_buf_.clear();
    wire_off_ = 0;
  }
}

void ClientConnection::HardClose() {
  MarkClosed();
  egress_.CloseNow();
  stream_->Close();
}

bool ClientConnection::Send(MessageType type, uint16_t code, uint32_t sequence,
                            std::span<const uint8_t> payload, uint64_t trace,
                            uint64_t parent) {
  if (closed_.load()) {
    return false;
  }
  EgressFrame frame{type, code, sequence,
                    std::vector<uint8_t>(payload.begin(), payload.end())};
  if (trace != 0) {
    // Point span marking the enqueue; the loop's kSpanWrite links to it.
    auto& tracer = obs::TraceRegistry::Instance();
    frame.trace = trace;
    frame.parent = tracer.Span(obs::TraceReason::kSpanEgress, trace, parent,
                               tracer.NowUs(), 0, code);
    if (metrics_ != nullptr) {
      metrics_->trace_spans.Increment();
    }
  }
  EgressPushResult result = egress_.Push(std::move(frame));
  if (result.dropped_events > 0 && metrics_ != nullptr) {
    metrics_->events_dropped.Increment(result.dropped_events);
  }
  switch (result.status) {
    case EgressPushStatus::kQueued:
      // Make sure the owning loop flushes this frame, asking once per drain
      // cycle: the frame is queued before the flag is read and DrainEgress
      // clears the flag before it pops, so a flag already set means a
      // flush that will pop this frame is still to come. (A send made by
      // this connection's own handler is covered by the post-dispatch
      // flush; the notifier filters that case.)
      if (arm_write_ && !flush_requested_.exchange(true)) {
        arm_write_();
      }
      return true;
    case EgressPushStatus::kClosed:
      return false;
    case EgressPushStatus::kOverflow:
      // Slow client: it stopped reading even its replies. Cut it off; the
      // owning loop observes the closed stream and reclaims its resources.
      LogLine(LogLevel::kWarning)
          << "egress overflow, disconnecting slow client #" << index_
          << (client_name_.empty() ? "" : " (" + client_name_ + ")");
      if (metrics_ != nullptr) {
        metrics_->egress_disconnects.Increment();
      }
      HardClose();
      return false;
  }
  return false;
}

bool ClientConnection::SendReply(uint16_t opcode, uint32_t sequence,
                                 std::span<const uint8_t> payload, uint64_t trace,
                                 uint64_t parent) {
  return Send(MessageType::kReply, opcode, sequence, payload, trace, parent);
}

bool ClientConnection::SendError(uint32_t sequence, const ErrorMessage& error,
                                 uint64_t trace, uint64_t parent) {
  ByteWriter w;
  error.Encode(&w);
  return Send(MessageType::kError, static_cast<uint16_t>(error.code), sequence,
              w.bytes(), trace, parent);
}

bool ClientConnection::SendEvent(const EventMessage& event) {
  ByteWriter w;
  event.Encode(&w);
  bool sent = Send(MessageType::kEvent, static_cast<uint16_t>(event.type),
                   last_sequence_.load(), w.bytes());
  if (sent) {
    stats_.events_sent.Increment();
    if (metrics_ != nullptr) {
      metrics_->events_sent.Increment();
    }
  }
  return sent;
}

}  // namespace aud
