// Play-start probe (paper E1): a chain on its own speaker plays a short
// beep; the probe records the wall time from the Play send to the first
// period in which its speaker's sink carries a non-silent sample. Its sink
// runs on the engine thread once a period, so on a realtime engine it also
// records that thread's CPU time per period.

#ifndef PERFBENCH_SRC_PROBE_H_
#define PERFBENCH_SRC_PROBE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/client.h"
#include "src/hw/speaker.h"
#include "src/trace.h"

namespace perfbench {

class PlayProbe {
 public:
  // Installs the sink on `speaker`; the probe must outlive the server's
  // engine activity on it.
  void Attach(aud::SpeakerUnit* speaker) {
    speaker->set_sink([this](std::span<const aud::Sample> block) { OnBlock(block); });
  }

  // Marks "Play sent now".
  void Arm() {
    heard_ns_.store(0, std::memory_order_relaxed);
    sent_ns_.store(NowNs(), std::memory_order_release);
  }

  // Once the armed beep has been heard: its latency in ms, and disarms.
  bool TakeLatency(double* ms) {
    const int64_t heard = heard_ns_.load(std::memory_order_acquire);
    const int64_t sent = sent_ns_.load(std::memory_order_relaxed);
    if (sent == 0 || heard == 0) {
      return false;
    }
    *ms = static_cast<double>(heard - sent) / 1e6;
    sent_ns_.store(0, std::memory_order_relaxed);
    return true;
  }

  // Wall time of the most recent sink block (the engine's period clock).
  int64_t last_block_ns() const { return last_block_ns_.load(std::memory_order_relaxed); }

  // Starts or stops recording the engine thread's CPU time between
  // consecutive blocks: one engine period each, tick and loop overhead.
  void RecordEngineCpu(bool on) {
    std::lock_guard<std::mutex> lock(cpu_mu_);
    recording_ = on;
    last_cpu_ns_ = 0;
  }
  std::vector<double> engine_cpu_us() {
    std::lock_guard<std::mutex> lock(cpu_mu_);
    return engine_cpu_us_;
  }

 private:
  void OnBlock(std::span<const aud::Sample> block) {
    const int64_t now = NowNs();
    {
      std::lock_guard<std::mutex> lock(cpu_mu_);
      if (recording_) {
        const int64_t cpu = ThreadCpuNs();
        if (last_cpu_ns_ != 0) {
          engine_cpu_us_.push_back(static_cast<double>(cpu - last_cpu_ns_) / 1000.0);
        }
        last_cpu_ns_ = cpu;
      }
    }
    last_block_ns_.store(now, std::memory_order_relaxed);
    bool audible = false;
    for (aud::Sample s : block) {
      if (s != 0) {
        audible = true;
        break;
      }
    }
    if (!audible) {
      return;
    }
    if (sent_ns_.load(std::memory_order_acquire) != 0 &&
        heard_ns_.load(std::memory_order_relaxed) == 0) {
      heard_ns_.store(now, std::memory_order_release);
    }
  }

  std::atomic<int64_t> sent_ns_{0};
  std::atomic<int64_t> heard_ns_{0};
  std::atomic<int64_t> last_block_ns_{0};
  std::mutex cpu_mu_;
  bool recording_ = false;
  int64_t last_cpu_ns_ = 0;
  std::vector<double> engine_cpu_us_;
};

// Drives a PlayProbe against the realtime engine: one beep in flight at a
// time, each sent a quarter of the 20 ms period after the speaker's last
// block, at least one period after the previous beep completed.
class ProbeDriver {
 public:
  ProbeDriver(PlayProbe* probe, ResourceId loud, ResourceId player, ResourceId beep)
      : probe_(probe), loud_(loud), player_(player), beep_(beep) {}

  // Call between operations: collects a heard latency and sends the next
  // beep when it is due. Returns true when a beep was sent.
  bool Poll(Client& client);

  // Consumes the probe's CommandDone; false for any other event.
  bool HandleEvent(const aud::EventMessage& event);

  bool idle() const { return tag_ == 0; }
  uint64_t sent() const { return sent_; }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }

 private:
  void Schedule();

  PlayProbe* probe_;
  ResourceId loud_;
  ResourceId player_;
  ResourceId beep_;
  uint32_t tag_ = 0;
  int64_t due_ns_ = 0;
  uint64_t sent_ = 0;
  std::vector<double> latencies_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PROBE_H_
