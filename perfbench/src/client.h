// What the workloads share: the composed server world (simulated
// board + AudioServer with default options, listening on TCP loopback),
// a traced raw-protocol client over Alib, the result record, and the
// per-layer readings taken from GetServerStats, the dsp kernels and
// getrusage.

#ifndef PERFBENCH_SRC_CLIENT_H_
#define PERFBENCH_SRC_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/alib/alib.h"
#include "src/common/byte_io.h"
#include "src/gen.h"
#include "src/hw/board.h"
#include "src/server/server.h"
#include "src/toolkit/toolkit.h"
#include "src/trace.h"
#include "src/wire/messages.h"

namespace perfbench {

using aud::Opcode;
using aud::ResourceId;

// Set-ups per run (setup_s is their median): at least kMinSetupReps and
// at least kMinSetupSeconds of wall time in total, at most kMaxSetupReps.
inline constexpr int kMinSetupReps = 7;
inline constexpr int kMaxSetupReps = 200;
inline constexpr double kMinSetupSeconds = 0.5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_path;  // traced run: where spans are written
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t n = 0;  // samples behind the value (0 = a single reading)
};

struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  // human-readable lines (checks, bases)

  void Add(std::vector<Metric>* to, std::string name, double value, std::string unit,
           uint64_t n = 0) {
    to->push_back(Metric{std::move(name), value, std::move(unit), n});
  }
  // Records a failed output check: counts it and keeps the first few reasons.
  void Fail(const std::string& why, uint64_t count = 1);
};

// Board + server with ServerOptions{} defaults (what audiond runs without
// flags), listening on an ephemeral loopback port.
class World {
 public:
  World(const aud::BoardConfig& board_config, bool traced);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  aud::Board& board() { return board_; }
  aud::AudioServer& server() { return *server_; }
  uint16_t port() const { return port_; }

 private:
  aud::Board board_;
  std::unique_ptr<aud::AudioServer> server_;
  uint16_t port_ = 0;
};

// A raw-protocol client: the benchmark encodes its own request structs,
// sends them with SendRequest and decodes replies itself, with a span
// around each step when its tracer is enabled.
class Client {
 public:
  // Connects over TCP (a transport.connect span). Null on failure.
  static std::unique_ptr<Client> Connect(World& world, const std::string& name,
                                         Tracer* tracer);

  aud::AudioConnection& conn() { return *conn_; }
  double connect_us() const { return connect_us_; }

  template <typename Req>
  uint32_t Send(Opcode opcode, const Req& req) {
    std::vector<uint8_t> payload;
    {
      ScopedSpan span(*tracer_, Layer::kWireEncode);
      aud::ByteWriter w(&payload);
      req.Encode(&w);
    }
    return SendPayload(opcode, payload);
  }
  uint32_t SendPayload(Opcode opcode, std::span<const uint8_t> payload);

  // Waits for and decodes the reply to `seq`.
  template <typename Reply>
  aud::Result<Reply> Wait(uint32_t seq) {
    aud::Result<std::vector<uint8_t>> raw = WaitRaw(seq);
    if (!raw.ok()) {
      return raw.status();
    }
    ScopedSpan span(*tracer_, Layer::kWireDecode);
    aud::ByteReader r(raw.value());
    Reply reply = Reply::Decode(&r);
    if (!r.ok()) {
      return aud::Status(aud::ErrorCode::kConnection, "malformed reply");
    }
    return reply;
  }
  aud::Result<std::vector<uint8_t>> WaitRaw(uint32_t seq);

  // Send + Wait; `rtt_us` receives the send-to-decoded time.
  template <typename Reply, typename Req>
  aud::Result<Reply> Call(Opcode opcode, const Req& req, double* rtt_us = nullptr) {
    const int64_t t0 = NowNs();
    uint32_t seq = Send(opcode, req);
    aud::Result<Reply> reply = Wait<Reply>(seq);
    if (rtt_us != nullptr) {
      *rtt_us = static_cast<double>(NowNs() - t0) / 1000.0;
    }
    return reply;
  }

  // Round trip of a request with an empty payload (GetServerTime, Sync).
  template <typename Reply>
  aud::Result<Reply> CallEmpty(Opcode opcode, double* rtt_us = nullptr) {
    const int64_t t0 = NowNs();
    aud::Result<Reply> reply = Wait<Reply>(SendPayload(opcode, {}));
    if (rtt_us != nullptr) {
      *rtt_us = static_cast<double>(NowNs() - t0) / 1000.0;
    }
    return reply;
  }

  // Starts counting sent requests in 1 ms slices from `t0_ns`.
  void StartRateBuckets(int64_t t0_ns) {
    rate_t0_ns_ = t0_ns;
    rate_buckets_.clear();
  }
  const std::vector<uint32_t>& rate_buckets() const { return rate_buckets_; }

  uint64_t requests() const { return requests_; }
  uint64_t request_bytes() const { return request_bytes_; }
  uint64_t reply_bytes() const { return reply_bytes_; }
  uint32_t last_sequence() const { return last_seq_; }

 private:
  std::unique_ptr<aud::AudioConnection> conn_;
  Tracer* tracer_ = nullptr;
  double connect_us_ = 0;
  uint64_t requests_ = 0;
  uint64_t request_bytes_ = 0;
  uint64_t reply_bytes_ = 0;
  uint32_t last_seq_ = 0;
  int64_t rate_t0_ns_ = 0;
  std::vector<uint32_t> rate_buckets_;
};

// Requests per second across `clients`: the interquartile mean of the
// rates of the window's buckets (at least 10 ms, about 100 requests each),
// so the stalls in a few buckets do not move it.
double RobustRequestRate(const std::vector<const Client*>& clients, double window_s);

// Returns memory freed by a torn-down rig to the system, so that the peak
// RSS of a run does not depend on which allocator arena each set-up's
// threads happened to use.
void ReleaseFreedMemory();

// What each set-up of a run cost.
struct SetupTimes {
  std::vector<double> cpu_s;   // CPU time of every thread of the process
  std::vector<double> wall_s;
};

// Repeats `setup`, tearing the previous rig down first, and keeps the last
// rig. Returns null as soon as one set-up fails.
template <typename Rig, typename SetupFn>
std::unique_ptr<Rig> RepeatSetUp(SetupFn&& setup, SetupTimes* times) {
  std::unique_ptr<Rig> rig;
  double total = 0;
  for (int rep = 0; rep < kMaxSetupReps && (rep < kMinSetupReps || total < kMinSetupSeconds);
       ++rep) {
    rig.reset();
    ReleaseFreedMemory();
    const int64_t t0 = NowNs();
    const int64_t cpu0 = ProcessCpuNs();
    rig = setup();
    times->cpu_s.push_back(static_cast<double>(ProcessCpuNs() - cpu0) / 1e9);
    times->wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += times->wall_s.back();
    if (rig == nullptr) {
      return nullptr;
    }
  }
  return rig;
}

// setup_s (end to end): the median set-up's CPU time, which host steal
// and preemption do not move; setup_wall_s (layer): the median wall time.
void AddSetupMetrics(const SetupTimes& times, WorkloadResult* result);

// The toolkit calls set-up makes, each in its span and timed for the
// toolkit.* layer metrics.
class TimedToolkit {
 public:
  TimedToolkit(aud::AudioConnection* conn, Tracer* tracer) : toolkit_(conn), tracer_(tracer) {}

  ResourceId Upload(const GenSound& sound);
  aud::AudioToolkit::PlaybackChain Build(const aud::AttrList& output_attrs);

  aud::AudioToolkit& toolkit() { return toolkit_; }
  const std::vector<double>& upload_us() const { return upload_us_; }
  const std::vector<double>& build_us() const { return build_us_; }

 private:
  aud::AudioToolkit toolkit_;
  Tracer* tracer_;
  std::vector<double> upload_us_;
  std::vector<double> build_us_;
};

// mix_realtime_x and tick_p50_us (end to end) and tick_p99_us (layer) from
// the engine CPU time of each tick in the window: audio seconds rendered
// per engine CPU second, and nearest-rank percentiles of one tick's CPU
// time. CPU time, not wall time, so that host steal and preemption of the
// engine thread do not move them.
void AddEngineMetrics(const std::vector<double>& tick_cpu_us, double audio_s,
                      WorkloadResult* result);

// Counts queued asynchronous protocol errors as failures.
void DrainAsyncErrors(Client& client, WorkloadResult* result, const char* who);

// Output device attributes binding to the board's speaker `index`.
aud::AttrList SpeakerAttrs(Client& client, int index);

// Process resource usage (for proc.* layer metrics).
struct ProcUsage {
  double cpu_s = 0;
  uint64_t vol_ctx_switches = 0;
  double max_rss_mb = 0;
};
ProcUsage ReadProcUsage();

// Per-layer readings common to every workload: GetServerStats deltas over
// the timed window, dsp kernel timings on this workload's own sounds,
// speaker counters and process usage.
struct LayerInputs {
  aud::ServerStatsReply before;
  aud::ServerStatsReply after;
  double window_s = 0;
  uint64_t requests = 0;  // client requests completed in the window
  ProcUsage usage_before;
  ProcUsage usage_after;
  std::vector<const std::vector<aud::Sample>*> sounds;  // dsp kernel inputs
  int64_t underrun_frames = 0;
  int64_t frames_out = 0;
  std::vector<double> step_us;         // StepFrames wall times (virtual time only)
  std::vector<double> event_wait_us;   // Play send -> CommandDone delivered
  double upload_us = 0;                // median toolkit UploadSound
  double build_chain_us = 0;           // median toolkit BuildPlaybackChain
  double connect_us = 0;               // median OpenTcp + setup
  std::vector<const Tracer*> tracers;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
  uint64_t server_spans = 0;           // request spans stitched from the server
};
void AddLayerMetrics(const LayerInputs& in, WorkloadResult* result);

// Stitches the server's request spans (GetRequestTrace) of up to `max_ops`
// sampled operations into JSON lines for the span file. Returns lines.
std::vector<std::string> StitchServerSpans(Client& client,
                                           const std::vector<uint64_t>& trace_ids);

// Runs one workload.
WorkloadResult RunPromptMix(const Options& options);
WorkloadResult RunControlRtt(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLIENT_H_
