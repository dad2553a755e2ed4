// In-memory spans for the traced run. Each benchmark thread owns one
// Tracer; a span records a layer name, start/end on the steady clock, its
// parent span and the workload operation it belongs to. Spans are written
// out when the run ends, with every layer's self time (span duration minus
// the time its child spans cover). A disabled tracer records nothing and
// costs one branch per call.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time the calling thread has run. Unlike NowNs it does not advance
// while the thread is preempted or its virtual CPU is stolen by the host.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// CPU time all threads of the process have run.
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Layer boundaries the benchmark times around its own calls.
enum class Layer : uint8_t {
  kOp,              // one workload operation (turn, tick, chunk)
  kWireEncode,      // request struct -> payload bytes
  kAlibSend,        // AudioConnection::SendRequest
  kAlibWait,        // AudioConnection::WaitReply
  kWireDecode,      // reply payload -> reply struct
  kServerStep,      // AudioServer::StepFrames
  kToolkitUpload,   // AudioToolkit::UploadSound
  kToolkitBuild,    // AudioToolkit::BuildPlaybackChain
  kTransportConnect,  // AudioConnection::OpenTcp
  kCount,
};

const char* LayerName(Layer layer);

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op_id = 0;     // server trace id of the operation, or a local id
  int32_t parent = -1;    // index of the parent span in the same tracer
  Layer layer = Layer::kOp;
};

class Tracer {
 public:
  Tracer(bool enabled, int thread) : enabled_(enabled), thread_(thread) {}

  bool enabled() const { return enabled_; }
  int thread() const { return thread_; }

  // Opens a span under the innermost open span; returns its index (or -1
  // when disabled).
  int32_t Begin(Layer layer, uint64_t op_id = 0);
  void End(int32_t index);
  // Sets the operation id of an open span (known only after its first send).
  void SetOp(int32_t index, uint64_t op_id);

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ns) of every closed span of `layer`.
  std::vector<double> Durations(Layer layer) const;

  // Self time (ns) per layer: duration minus the time covered by children.
  std::map<Layer, double> SelfTimeNs() const;

 private:
  bool enabled_;
  int thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Layer layer, uint64_t op_id = 0)
      : tracer_(tracer), index_(tracer.Begin(layer, op_id)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer& tracer_;
  int32_t index_;
};

// Cost of one Begin/End pair on this host, in ns (median of a short
// calibration), for the tracing-overhead estimate.
double SpanPairCostNs();

// Writes each tracer's spans (the first 50000 of each) as JSON lines to
// `path`, then the extra lines (stitched server spans) verbatim, then one
// summary line with span counts and every layer's self time over all
// spans. Returns false if the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers,
                const std::vector<std::string>& extra_lines);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
