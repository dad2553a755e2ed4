// One client connection: the transport endpoint plus per-client protocol
// state. The connection manager creates one of these per accepted stream
// and keeps "a container object for each client connection" (section 6.1);
// the object registry tags every resource with its owning connection so
// disconnect cleanup is exact.
//
// A connection owns no thread. One of the server's event loops owns it
// (DESIGN.md decision 14): that loop thread reads and frames its requests,
// dispatches them under the big lock, and drains its bounded egress queue
// with non-blocking writes. Send* enqueue and never perform transport I/O,
// so they are safe to call with the big lock held (DESIGN.md decision 11).

#ifndef SRC_SERVER_CONNECTION_H_
#define SRC_SERVER_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/server/egress_queue.h"
#include "src/server/metrics.h"
#include "src/server/token_bucket.h"
#include "src/transport/framer.h"
#include "src/transport/stream.h"

namespace aud {

// Default per-connection egress budget. Generous enough that only a client
// that has genuinely stopped reading ever hits the overflow policy.
inline constexpr size_t kDefaultEgressBudgetBytes = 1u << 20;  // 1 MiB

// Per-connection statistics (GetEntityStats). Same contract as the global
// ServerMetrics: every member is relaxed-atomic, so the owning loop and the
// engine may both bump them lock-free, and a snapshot taken from any thread
// never tears.
struct ConnectionStats {
  obs::Counter requests;
  obs::Counter errors;
  obs::Counter bytes_in;
  obs::Counter bytes_out;
  obs::Counter events_sent;
  obs::LatencyHistogram dispatch_us;
  // events_dropped lives on the egress queue (dropped_events_total()).
};

class ClientConnection {
 public:
  ClientConnection(uint32_t index, std::unique_ptr<ByteStream> stream,
                   size_t egress_budget_bytes = kDefaultEgressBudgetBytes,
                   EgressOverflowPolicy overflow_policy =
                       EgressOverflowPolicy::kDropEvents)
      : index_(index),
        stream_(std::move(stream)),
        egress_(egress_budget_bytes, overflow_policy) {}

  uint32_t index() const { return index_; }
  ByteStream* stream() { return stream_.get(); }

  // Optional byte/event accounting sink (the server's metrics aggregate;
  // counters are atomic, so writes need no lock). Set before the first Send.
  void set_metrics(ServerMetrics* metrics);
  ServerMetrics* metrics() { return metrics_; }

  const std::string& client_name() const { return client_name_; }
  void set_client_name(std::string name) { client_name_ = std::move(name); }

  bool closed() const { return closed_.load(); }
  void MarkClosed() { closed_.store(true); }

  // Sequence of the last request processed (stamped onto events, as in X).
  uint32_t last_sequence() const { return last_sequence_.load(); }
  void set_last_sequence(uint32_t seq) { last_sequence_.store(seq); }

  // Drain: stop accepting frames and let the owning loop flush the backlog
  // (a final error/refusal still reaches the client), bounded by the
  // server's drain deadline.
  void BeginDrain() {
    MarkClosed();
    egress_.BeginDrain();
  }

  // Immediate teardown: mark closed, discard the egress backlog, shut the
  // stream down (which makes its fd readable, so the owning loop notices).
  // Safe from any thread and idempotent; used for slow-client disconnect
  // and server shutdown.
  void HardClose();

  // True once the owning loop has finished the connection's teardown — it
  // can be destroyed without touching server state. Set as the teardown's
  // last action.
  bool finished() const { return finished_.load(std::memory_order_acquire); }
  void MarkFinished() { finished_.store(true, std::memory_order_release); }

  // Enqueues one framed message; never blocks on transport I/O. Returns
  // false once the connection is closed or the client was disconnected by
  // the overflow policy. Event frames may be shed under pressure (counted
  // in events_dropped) without failing the call. A nonzero `trace` marks
  // the frame request-scoped: enqueue records a kSpanEgress span parented
  // on `parent`, and the loop records a kSpanWrite span for the socket
  // write itself.
  bool Send(MessageType type, uint16_t code, uint32_t sequence,
            std::span<const uint8_t> payload, uint64_t trace = 0, uint64_t parent = 0);

  // Convenience senders.
  bool SendReply(uint16_t opcode, uint32_t sequence, std::span<const uint8_t> payload,
                 uint64_t trace = 0, uint64_t parent = 0);
  bool SendError(uint32_t sequence, const ErrorMessage& error, uint64_t trace = 0,
                 uint64_t parent = 0);
  bool SendEvent(const EventMessage& event);

  uint64_t events_dropped() const { return egress_.dropped_events_total(); }
  size_t egress_queued_bytes() const { return egress_.queued_bytes(); }

  // Per-connection statistic block (lock-free; see ConnectionStats).
  ConnectionStats& stats() { return stats_; }
  const ConnectionStats& stats() const { return stats_; }

  // Per-connection trace-sampling state, owned by the loop thread (only
  // that thread touches it, so a plain field suffices).
  uint64_t& trace_sample_counter() { return trace_sample_counter_; }

  // Rate-limit buckets (DESIGN.md decision 15), owned by the same thread
  // that reads this connection — plain fields like the sample counter.
  // Configure (from AddConnection, before the first read) via
  // ConfigureRateLimits; check via CheckRateLimit on the server.
  void ConfigureRateLimits(double rps, double rps_burst, double bps,
                           double bps_burst) {
    rps_bucket_.Configure(rps, rps_burst);
    bps_bucket_.Configure(bps, bps_burst);
  }
  TokenBucket& rps_bucket() { return rps_bucket_; }
  TokenBucket& bps_bucket() { return bps_bucket_; }

  // ---- Loop-driven I/O (DESIGN.md decision 14) ----
  // The owning loop drives TryReadFrame/DrainEgress from its one thread;
  // Send calls `arm_write` so the loop learns there is egress to flush.

  // Binds the connection to its loop. Call before the fd is registered
  // (and before any Send can happen).
  void AttachToLoop(uint32_t loop_index, std::function<void()> arm_write) {
    loop_index_ = loop_index;
    arm_write_ = std::move(arm_write);
  }
  uint32_t loop_index() const { return loop_index_; }
  int pollable_fd() const { return stream_->pollable_fd(); }

  // Incremental frame reassembly (loop thread only): resumes the partial
  // frame across readiness events, returning kWouldBlock mid-frame.
  FrameStatus TryReadFrame(FramedMessage* out) {
    return framer_.TryReadMessage(stream_.get(), out);
  }

  // Non-blocking egress drain (loop thread only). kIdle: nothing queued
  // (write interest can be disarmed); kBlocked: the socket buffer filled
  // mid-frame (arm write interest); kError: transport dead.
  enum class DrainStatus : uint8_t { kIdle, kBlocked, kError };
  DrainStatus DrainEgress();

  // Connection-plane driver state, touched only by the owning loop thread
  // (the sweep also runs there), so plain fields suffice.
  struct LoopState {
    bool awaiting_setup = true;
    bool draining = false;
    bool torn_down = false;
    std::chrono::steady_clock::time_point drain_deadline{};
  };
  LoopState& loop_state() { return loop_state_; }

 private:
  uint32_t index_;
  // Not guarded: only the owning loop thread does I/O on it; other threads
  // at most HardClose it (a shutdown(2), safe alongside that I/O).
  std::unique_ptr<ByteStream> stream_;
  ServerMetrics* metrics_ = nullptr;
  std::string client_name_;
  ConnectionStats stats_;
  uint64_t trace_sample_counter_ = 0;
  TokenBucket rps_bucket_;
  TokenBucket bps_bucket_;
  EgressQueue egress_;
  // Loop I/O state (loop thread only): the resumable framer and the
  // partially written wire frame carried across write-readiness rounds.
  Framer framer_;
  std::vector<uint8_t> wire_buf_;
  size_t wire_off_ = 0;
  uint64_t wire_trace_ = 0;
  uint64_t wire_parent_ = 0;
  int64_t wire_t0_ = 0;
  LoopState loop_state_;
  uint32_t loop_index_ = 0;
  std::function<void()> arm_write_;
  // Set by Send when it calls arm_write_, cleared by DrainEgress: a burst
  // of sends (an epoch commit's events) costs one arm per drain cycle.
  std::atomic<bool> flush_requested_{false};
  std::atomic<bool> closed_{false};
  std::atomic<bool> finished_{false};
  std::atomic<uint32_t> last_sequence_{0};
};

}  // namespace aud

#endif  // SRC_SERVER_CONNECTION_H_
