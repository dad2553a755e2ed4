#include "src/transport/framer.h"

#include <array>

namespace aud {

bool ReadFully(ByteStream* stream, std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    size_t n = stream->Read(out.subspan(done));
    if (n == 0) {
      return false;
    }
    done += n;
  }
  return true;
}

std::optional<FramedMessage> ReadMessage(ByteStream* stream) {
  std::array<uint8_t, kHeaderSize> header_bytes;
  if (!ReadFully(stream, header_bytes)) {
    return std::nullopt;
  }
  Result<MessageHeader> header = DecodeHeaderStrict(header_bytes);
  if (!header.ok()) {
    return std::nullopt;
  }
  FramedMessage msg;
  msg.header = header.take();
  msg.payload.resize(msg.header.length);
  if (msg.header.length > 0 && !ReadFully(stream, msg.payload)) {
    return std::nullopt;
  }
  return msg;
}

bool WriteMessage(ByteStream* stream, MessageType type, uint16_t code, uint32_t sequence,
                  std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame = FrameMessage(type, code, sequence, payload);
  return stream->Write(frame);
}

FrameStatus Framer::TryReadMessage(ByteStream* stream, FramedMessage* out) {
  while (true) {
    if (state_ == State::kDead) {
      return FrameStatus::kEof;
    }
    if (state_ == State::kHeader) {
      while (filled_ < kHeaderSize) {
        IoResult r = stream->ReadSome(
            std::span<uint8_t>(header_bytes_).subspan(filled_));
        if (r.status == IoStatus::kWouldBlock) {
          return FrameStatus::kWouldBlock;
        }
        if (r.status != IoStatus::kOk) {
          state_ = State::kDead;
          return FrameStatus::kEof;
        }
        filled_ += r.bytes;
      }
      Result<MessageHeader> header = DecodeHeaderStrict(header_bytes_);
      if (!header.ok()) {
        state_ = State::kDead;
        return FrameStatus::kMalformed;
      }
      partial_.header = header.take();
      partial_.payload.resize(partial_.header.length);
      state_ = State::kPayload;
      filled_ = 0;
    }
    while (filled_ < partial_.payload.size()) {
      IoResult r = stream->ReadSome(
          std::span<uint8_t>(partial_.payload).subspan(filled_));
      if (r.status == IoStatus::kWouldBlock) {
        return FrameStatus::kWouldBlock;
      }
      if (r.status != IoStatus::kOk) {
        state_ = State::kDead;
        return FrameStatus::kEof;
      }
      filled_ += r.bytes;
    }
    *out = std::move(partial_);
    partial_ = FramedMessage{};
    state_ = State::kHeader;
    filled_ = 0;
    return FrameStatus::kMessage;
  }
}

}  // namespace aud
