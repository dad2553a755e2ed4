// Socket transport: the "networked access to resources" requirement of
// section 2 — a client connects to the audio server of any workstation on
// the network the same way X clients reach remote displays. In-process
// clients (tests, benches, examples) use a connected AF_UNIX socketpair, so
// every connection the server holds is a pollable socket.

#ifndef SRC_TRANSPORT_SOCKET_STREAM_H_
#define SRC_TRANSPORT_SOCKET_STREAM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/transport/stream.h"

namespace aud {

// A connected stream socket endpoint (TCP or AF_UNIX).
class SocketStream : public ByteStream {
 public:
  // Takes ownership of a connected fd.
  explicit SocketStream(int fd) : fd_(fd) {}
  ~SocketStream() override;

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  bool Write(std::span<const uint8_t> data) override;
  size_t Read(std::span<uint8_t> out) override;
  void Close() override;

  // Non-blocking variants for the event-loop connection plane. Correct
  // whether or not the fd carries O_NONBLOCK (send/recv are used with
  // MSG_DONTWAIT).
  IoResult ReadSome(std::span<uint8_t> out) override;
  IoResult WriteSome(std::span<const uint8_t> data) override;
  int pollable_fd() const override {
    return fd_.load(std::memory_order_relaxed);
  }

 private:
  // Atomic: Close() may run from one thread while another blocks in Read().
  std::atomic<int> fd_;
};

// Listening socket. Bind to port 0 for an ephemeral port.
class SocketListener {
 public:
  SocketListener() = default;
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Binds and listens on 127.0.0.1:`port`. Returns false on failure.
  bool Listen(uint16_t port);

  // The bound port (useful after Listen(0)).
  uint16_t port() const { return port_; }

  // Blocks for the next connection; nullptr only when the listener has
  // been closed. Transient accept(2) failures — EINTR, ECONNABORTED,
  // EMFILE/ENFILE, ENOMEM/ENOBUFS — are retried internally with bounded
  // exponential backoff (1 ms doubling to 100 ms) so one failure burst can
  // never permanently stop the server accepting. The first failure of a
  // burst is logged; subsequent ones are only counted.
  //
  // Accepted fds are always FD_CLOEXEC (via accept4 where available, fcntl
  // otherwise) so they cannot leak into forked tools; pass `nonblocking`
  // to additionally set O_NONBLOCK atomically for event-loop ownership.
  std::unique_ptr<ByteStream> Accept(bool nonblocking = false);

  // Unblocks Accept.
  void Close();

  // Total transient accept failures retried since Listen (a monotone
  // counter the server mirrors into its accept_retries stat).
  uint64_t accept_retries() const {
    return accept_retries_.load(std::memory_order_relaxed);
  }

  // Test hook: the next Accept() calls consume these errno values (one per
  // call) instead of calling accept(2), exercising the retry/backoff paths
  // deterministically. Not thread-safe against a concurrent Accept.
  void InjectAcceptErrnosForTest(std::vector<int> errnos);

 private:
  std::atomic<int> fd_{-1};
  uint16_t port_ = 0;
  // Set by Close(); distinguishes "listener shut down" from a transient
  // accept failure (after shutdown(2), accept returns EINVAL on Linux).
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> accept_retries_{0};
  std::vector<int> injected_errnos_;
};

// Connects to 127.0.0.1:`port`; nullptr on failure.
std::unique_ptr<ByteStream> ConnectTcp(const std::string& host, uint16_t port);

// A connected AF_UNIX stream socketpair, both ends FD_CLOEXEC and blocking:
// one end goes to AudioServer::AddConnection, the other to an in-process
// client. Aborts if the process is out of descriptors.
std::pair<std::unique_ptr<ByteStream>, std::unique_ptr<ByteStream>> CreateSocketPair();

}  // namespace aud

#endif  // SRC_TRANSPORT_SOCKET_STREAM_H_
