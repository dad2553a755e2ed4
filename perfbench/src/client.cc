#include "src/client.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/dsp/encoding.h"
#include "src/dsp/gain.h"
#include "src/dsp/mixer_kernel.h"
#include "src/dsp/resampler.h"
#include "src/stats.h"

namespace perfbench {

namespace {

constexpr size_t kHeaderBytes = 12;  // MessageHeader on the wire

// Requests are counted per 1 ms slice; RobustRequestRate groups slices into
// buckets of at least 10 ms that hold about 100 requests on average.
constexpr int64_t kRateSliceNs = 1'000'000;
constexpr size_t kMinBucketSlices = 10;
constexpr double kRequestsPerBucket = 100;

// Server requests sampled for span stitching in the traced run.
constexpr uint32_t kTraceSampleEvery = 8;

double Median(std::vector<double> v) {
  auto m = NearestRank(std::move(v), 50);
  return m ? *m : 0.0;
}

aud::obs::HistogramSnapshot Delta(const aud::obs::HistogramSnapshot& before,
                                  const aud::obs::HistogramSnapshot& after) {
  aud::obs::HistogramSnapshot d = after;
  d.count = after.count - std::min(after.count, before.count);
  d.sum = after.sum - std::min(after.sum, before.sum);
  for (size_t b = 0; b < d.buckets.size() && b < before.buckets.size(); ++b) {
    d.buckets[b] -= std::min(d.buckets[b], before.buckets[b]);
  }
  return d;
}

double Pct(const aud::obs::HistogramSnapshot& h, double p) {
  return h.empty() ? 0.0 : h.Percentile(p);
}

// Median ns per call of `fn` over several repetitions.
template <typename Fn>
double TimeNs(int reps, Fn&& fn) {
  std::vector<double> ns;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(std::move(ns));
}

}  // namespace

void WorkloadResult::Fail(const std::string& why, uint64_t count) {
  correct = false;
  failed += count;
  if (notes.size() < 64) {
    notes.push_back("CHECK FAILED: " + why);
  }
}

World::World(const aud::BoardConfig& board_config, bool traced) : board_(board_config) {
  aud::ServerOptions options;
  if (traced) {
    options.trace_sample_every = kTraceSampleEvery;
  }
  server_ = std::make_unique<aud::AudioServer>(&board_, options);
  if (server_->ListenTcp(0)) {
    port_ = server_->tcp_port();
  }
}

World::~World() { server_->Shutdown(); }

std::unique_ptr<Client> Client::Connect(World& world, const std::string& name,
                                        Tracer* tracer) {
  if (world.port() == 0) {
    return nullptr;
  }
  auto client = std::unique_ptr<Client>(new Client());
  client->tracer_ = tracer;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(*tracer, Layer::kTransportConnect);
    client->conn_ = aud::AudioConnection::OpenTcp("127.0.0.1", world.port(), name);
  }
  client->connect_us_ = static_cast<double>(NowNs() - t0) / 1000.0;
  if (client->conn_ == nullptr) {
    return nullptr;
  }
  return client;
}

uint32_t Client::SendPayload(Opcode opcode, std::span<const uint8_t> payload) {
  ScopedSpan span(*tracer_, Layer::kAlibSend);
  ++requests_;
  if (rate_t0_ns_ != 0) {
    const auto bucket = static_cast<size_t>((NowNs() - rate_t0_ns_) / kRateSliceNs);
    if (bucket >= rate_buckets_.size()) {
      rate_buckets_.resize(bucket + 1, 0);
    }
    ++rate_buckets_[bucket];
  }
  request_bytes_ += kHeaderBytes + payload.size();
  last_seq_ = conn_->SendRequest(opcode, payload);
  return last_seq_;
}

aud::Result<std::vector<uint8_t>> Client::WaitRaw(uint32_t seq) {
  ScopedSpan span(*tracer_, Layer::kAlibWait);
  aud::Result<std::vector<uint8_t>> raw = conn_->WaitReply(seq);
  if (raw.ok()) {
    reply_bytes_ += kHeaderBytes + raw.value().size();
  }
  return raw;
}

void ReleaseFreedMemory() { malloc_trim(0); }

double RobustRequestRate(const std::vector<const Client*>& clients, double window_s) {
  const auto slices = static_cast<size_t>(window_s * 1e9 / static_cast<double>(kRateSliceNs));
  std::vector<double> counts(slices, 0.0);
  double total = 0;
  for (const Client* client : clients) {
    const auto& slice_counts = client->rate_buckets();
    for (size_t i = 0; i < slices && i < slice_counts.size(); ++i) {
      counts[i] += slice_counts[i];
      total += slice_counts[i];
    }
  }
  const size_t width = std::max(
      kMinBucketSlices,
      static_cast<size_t>(std::ceil(kRequestsPerBucket * static_cast<double>(slices) /
                                    std::max(total, 1.0))));
  const double bucket_s = static_cast<double>(width * kRateSliceNs) / 1e9;
  std::vector<double> rates;
  for (size_t start = 0; start + width <= slices; start += width) {
    double n = 0;
    for (size_t i = start; i < start + width; ++i) {
      n += counts[i];
    }
    rates.push_back(n / bucket_s);
  }
  // Interquartile mean: buckets hit by a stall drop out like in a median,
  // but the result is not quantized to one bucket's count.
  std::sort(rates.begin(), rates.end());
  const size_t lo = rates.size() / 4;
  const size_t hi = rates.size() - lo;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) {
    sum += rates[i];
  }
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

ResourceId TimedToolkit::Upload(const GenSound& sound) {
  ScopedSpan span(*tracer_, Layer::kToolkitUpload);
  const int64_t t0 = NowNs();
  ResourceId id = toolkit_.UploadSound(sound.pcm, sound.format);
  upload_us_.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  return id;
}

aud::AudioToolkit::PlaybackChain TimedToolkit::Build(const aud::AttrList& output_attrs) {
  ScopedSpan span(*tracer_, Layer::kToolkitBuild);
  const int64_t t0 = NowNs();
  auto chain = toolkit_.BuildPlaybackChain(output_attrs);
  build_us_.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
  return chain;
}

void AddEngineMetrics(const std::vector<double>& tick_cpu_us, double audio_s,
                      WorkloadResult* result) {
  double cpu_s = 0;
  for (double us : tick_cpu_us) {
    cpu_s += us / 1e6;
  }
  const Summary tick = Summarize(tick_cpu_us);
  if (tick.n > 0) {
    char note[160];
    std::snprintf(note, sizeof note,
                  "tick cpu us: mean %.2f p10 %.2f p50 %.2f p90 %.2f p99 %.2f max %.2f",
                  cpu_s * 1e6 / static_cast<double>(tick.n), *NearestRank(tick_cpu_us, 10),
                  tick.p50, *NearestRank(tick_cpu_us, 90), tick.p99,
                  *NearestRank(tick_cpu_us, 100));
    result->notes.push_back(note);
  }
  result->Add(&result->e2e, "mix_realtime_x", cpu_s > 0 ? audio_s / cpu_s : 0, "x", tick.n);
  result->Add(&result->e2e, "tick_p50_us", tick.p50, "us", tick.n);
  result->Add(&result->layer, "tick_p99_us", tick.p99, "us", tick.n);
}

void AddSetupMetrics(const SetupTimes& times, WorkloadResult* result) {
  result->Add(&result->e2e, "setup_s", Median(times.cpu_s), "s", times.cpu_s.size());
  result->Add(&result->layer, "setup_wall_s", Median(times.wall_s), "s", times.wall_s.size());
}

void DrainAsyncErrors(Client& client, WorkloadResult* result, const char* who) {
  aud::AsyncError error;
  while (client.conn().NextError(&error)) {
    result->Fail(std::string(who) + ": async error on request " +
                 std::to_string(error.sequence) + ": " + error.error.detail + " (opcode " +
                 std::to_string(error.error.opcode) + ")");
  }
}

aud::AttrList SpeakerAttrs(Client& client, int index) {
  aud::AttrList attrs;
  auto reply = client.conn().QueryDeviceLoud();
  if (!reply.ok()) {
    return attrs;
  }
  const std::string want = "speaker" + std::to_string(index);
  for (const auto& dev : reply.value().devices) {
    if (dev.attrs.GetString(aud::AttrTag::kName) == want) {
      attrs.SetU32(aud::AttrTag::kDeviceId, dev.id);
    }
  }
  return attrs;
}

ProcUsage ReadProcUsage() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  ProcUsage usage;
  usage.cpu_s = secs(u.ru_utime) + secs(u.ru_stime);
  usage.vol_ctx_switches = static_cast<uint64_t>(u.ru_nvcsw);
  usage.max_rss_mb = static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB -> MiB
  return usage;
}

void AddLayerMetrics(const LayerInputs& in, WorkloadResult* result) {
  auto add = [&](const std::string& name, double value, const std::string& unit,
                 uint64_t n = 0) { result->Add(&result->layer, name, value, unit, n); };
  const double window = std::max(in.window_s, 1e-9);
  const double requests = static_cast<double>(std::max<uint64_t>(in.requests, 1));

  // alib and wire: the benchmark's own spans.
  std::vector<double> send_ns, wait_ns, encode_ns, decode_ns;
  for (const Tracer* t : in.tracers) {
    auto append = [&](std::vector<double>& to, Layer layer) {
      auto d = t->Durations(layer);
      to.insert(to.end(), d.begin(), d.end());
    };
    append(send_ns, Layer::kAlibSend);
    append(wait_ns, Layer::kAlibWait);
    append(encode_ns, Layer::kWireEncode);
    append(decode_ns, Layer::kWireDecode);
  }
  const Summary send = Summarize(send_ns);
  const Summary wait = Summarize(wait_ns);
  const Summary events = Summarize(in.event_wait_us);
  add("alib.send_us.p50", send.p50 / 1000.0, "us", send.n);
  add("alib.send_us.p99", send.p99 / 1000.0, "us", send.n);
  add("alib.wait_us.p50", wait.p50 / 1000.0, "us", wait.n);
  add("alib.wait_us.p99", wait.p99 / 1000.0, "us", wait.n);
  add("alib.event_wait_us.p50", events.p50, "us", events.n);
  add("wire.encode_ns.p50", Summarize(encode_ns).p50, "ns", encode_ns.size());
  add("wire.decode_ns.p50", Summarize(decode_ns).p50, "ns", decode_ns.size());
  add("wire.bytes_per_request",
      static_cast<double>(in.request_bytes + in.reply_bytes) / requests, "B");

  // transport.
  const auto& b = in.before;
  const auto& a = in.after;
  add("transport.connect_us", in.connect_us, "us");
  add("transport.bytes_in_per_s", static_cast<double>(a.bytes_in - b.bytes_in) / window, "B/s");
  add("transport.bytes_out_per_s", static_cast<double>(a.bytes_out - b.bytes_out) / window,
      "B/s");

  // server: StepFrames timing plus GetServerStats deltas over the window.
  const Summary step = Summarize(in.step_us);
  add("server.step_us.p50", step.p50, "us", step.n);
  add("server.step_us.p99", step.p99, "us", step.n);
  const auto tick = Delta(b.tick_us, a.tick_us);
  const auto commit = Delta(b.epoch_commit_us, a.epoch_commit_us);
  const auto dispatch = Delta(b.dispatch_us, a.dispatch_us);
  const auto lock_wait = Delta(b.lock_wait_us, a.lock_wait_us);
  const auto m2e = Delta(b.mouth_to_ear_us, a.mouth_to_ear_us);
  add("server.tick_us.p50", Pct(tick, 50), "us", tick.count);
  add("server.tick_us.p99", Pct(tick, 99), "us", tick.count);
  add("server.epoch_commit_us.p99", Pct(commit, 99), "us", commit.count);
  add("server.dispatch_us.p50", Pct(dispatch, 50), "us", dispatch.count);
  add("server.dispatch_us.p99", Pct(dispatch, 99), "us", dispatch.count);
  add("server.lock_wait_us.p50", Pct(lock_wait, 50), "us", lock_wait.count);
  add("server.lock_wait_us.p99", Pct(lock_wait, 99), "us", lock_wait.count);
  const uint64_t server_requests = a.requests_total - b.requests_total;
  add("server.shard_contention_per_1k_requests",
      1000.0 * static_cast<double>(a.dispatch_shard_contention - b.dispatch_shard_contention) /
          static_cast<double>(std::max<uint64_t>(server_requests, 1)),
      "count", server_requests);
  const uint64_t hits = a.decoded_cache_hits - b.decoded_cache_hits;
  const uint64_t lookups = hits + (a.decoded_cache_misses - b.decoded_cache_misses);
  add("server.decoded_cache.hit_ratio",
      lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups), "ratio",
      lookups);
  add("server.decoded_cache.lookups", static_cast<double>(lookups), "count");
  add("server.decoded_cache.evictions",
      static_cast<double>(a.decoded_cache_evictions - b.decoded_cache_evictions), "count");
  add("server.mouth_to_ear_us.p50", Pct(m2e, 50), "us", m2e.count);
  add("server.events_sent", static_cast<double>(a.events_sent - b.events_sent), "count");
  add("server.events_dropped", static_cast<double>(a.events_dropped - b.events_dropped),
      "count");
  add("server.egress_disconnects",
      static_cast<double>(a.egress_disconnects - b.egress_disconnects), "count");
  add("server.tick_overruns", static_cast<double>(a.tick_overruns - b.tick_overruns), "count");
  add("server.request_spans", static_cast<double>(in.server_spans), "count");

  // dsp: the public kernels on this workload's own content.
  std::vector<aud::Sample> content;
  for (const auto* s : in.sounds) {
    content.insert(content.end(), s->begin(), s->end());
    if (content.size() >= 32000) {
      break;
    }
  }
  content.resize(std::min<size_t>(content.size(), 32000));
  if (content.empty()) {
    content.assign(32000, 0);
  }
  const char* names[] = {"mulaw8", "alaw8", "pcm16", "adpcm4"};
  const aud::Encoding encodings[] = {aud::Encoding::kMulaw8, aud::Encoding::kAlaw8,
                                     aud::Encoding::kPcm16, aud::Encoding::kAdpcm4};
  std::vector<aud::Sample> scratch;
  scratch.reserve(content.size() * 2);
  for (int i = 0; i < 4; ++i) {
    std::vector<uint8_t> encoded;
    aud::StreamEncoder(encodings[i]).Encode(content, &encoded);
    const double ns = TimeNs(9, [&] {
      scratch.clear();
      aud::StreamDecoder decoder(encodings[i]);
      decoder.Decode(encoded, &scratch);
    });
    add(std::string("dsp.decode_ns_per_sample.") + names[i],
        ns / static_cast<double>(content.size()), "ns");
  }
  const double resample_ns = TimeNs(9, [&] {
    scratch.clear();
    aud::Resampler resampler(16000, 8000);
    resampler.Process(content, &scratch);
  });
  add("dsp.resample_ns_per_sample", resample_ns / static_cast<double>(content.size()), "ns");
  aud::MixAccumulator acc(160);
  std::vector<aud::Sample> block(content.begin(), content.begin() + 160);
  std::vector<aud::Sample> mixed(160);
  constexpr int kBlocks = 2000;
  const double accumulate_ns = TimeNs(9, [&] {
    for (int k = 0; k < kBlocks; ++k) {
      acc.Accumulate(block, aud::kUnityGain);
    }
  }) / kBlocks;
  const double resolve_ns = TimeNs(9, [&] {
    for (int k = 0; k < kBlocks; ++k) {
      acc.Resolve(mixed);
    }
  }) / kBlocks;
  add("dsp.mix_accumulate_ns", accumulate_ns, "ns");
  add("dsp.mix_resolve_ns", resolve_ns, "ns");

  // hw.
  add("hw.underrun_frames", static_cast<double>(in.underrun_frames), "count");
  add("hw.frames_out", static_cast<double>(in.frames_out), "count");

  // toolkit.
  add("toolkit.upload_us", in.upload_us, "us");
  add("toolkit.build_chain_us", in.build_chain_us, "us");

  // proc.
  const double cpu_s = in.usage_after.cpu_s - in.usage_before.cpu_s;
  add("proc.vol_ctx_switches_per_request",
      static_cast<double>(in.usage_after.vol_ctx_switches - in.usage_before.vol_ctx_switches) /
          requests,
      "count");
  add("proc.cpu_share", cpu_s / window, "ratio");

  // Tracing itself.
  uint64_t spans = 0;
  for (const Tracer* t : in.tracers) {
    spans += t->spans().size();
  }
  const double threads = static_cast<double>(std::max<size_t>(in.tracers.size(), 1));
  add("trace.spans", static_cast<double>(spans), "count");
  add("trace.overhead_pct",
      100.0 * static_cast<double>(spans) * SpanPairCostNs() / 1e9 / (window * threads), "%");
}

std::vector<std::string> StitchServerSpans(Client& client,
                                           const std::vector<uint64_t>& trace_ids) {
  std::vector<std::string> lines;
  for (uint64_t id : trace_ids) {
    auto reply = client.conn().GetRequestTrace(id);
    if (!reply.ok()) {
      continue;
    }
    for (const auto& s : reply.value().spans) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"server_span\":true,\"op\":%llu,\"seq\":%llu,\"parent\":%llu,"
                    "\"reason\":\"%s\",\"t_us\":%lld,\"dur_us\":%u}",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(s.seq),
                    static_cast<unsigned long long>(s.parent),
                    std::string(aud::obs::TraceReasonName(
                                    static_cast<aud::obs::TraceReason>(s.reason)))
                        .c_str(),
                    static_cast<long long>(s.t_us), s.dur_us);
      lines.emplace_back(buf);
    }
  }
  return lines;
}

}  // namespace perfbench
