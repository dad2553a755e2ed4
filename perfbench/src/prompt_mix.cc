// prompt_mix: the engine-bound workload. One connection builds 256
// playback chains over four speakers and pre-issues every chain's whole
// queue of back-to-back Plays (paper section 5.5), drawn by a seeded Zipf
// from a prompt/message catalogue twice the default decoded-cache budget.
// The timed window steps virtual time with StepFrames(period) back to
// back; after each step the benchmark checks every speaker's period
// against its own reference mix and drains CommandDone events. Between
// ticks, on a schedule counted in ticks, it sends the play-start probe and
// checks GetServerTime, so every run carries the same requests per tick.

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/client.h"
#include "src/common/clock.h"
#include "src/gen.h"
#include "src/probe.h"
#include "src/refmix.h"
#include "src/stats.h"

namespace perfbench {

namespace {

constexpr size_t kPeriod = 160;
constexpr uint32_t kEngineRate = 8000;
// Audio each chain's pre-issued queue covers per wall second of the timed
// window: more than the stepping renders (about 190 s on a 4-vCPU host),
// so that every chain plays for the whole window.
constexpr double kAudioPerWallSecond = 300;
// A probe beep every 128 ticks (2.56 s of audio) and a GetServerTime round
// trip every 64 ticks, counted from the previous one.
constexpr uint64_t kProbeEveryTicks = 128;
constexpr uint64_t kCheckTimeEveryTicks = 64;
constexpr uint32_t kProbeTagBase = 1u << 30;

struct Rig {
  std::unique_ptr<World> world;
  std::unique_ptr<Client> client;
  std::unique_ptr<TimedToolkit> toolkit;
  std::vector<aud::AudioToolkit::PlaybackChain> chains;
  aud::AudioToolkit::PlaybackChain probe;
  std::map<ResourceId, int> speaker_of_player;
  ResourceId beep = aud::kNoResource;
};

// Server construction through connect, uploads, graph build and pre-issue.
std::unique_ptr<Rig> SetUp(const PromptMixPlan& plan, const Options& options, Tracer* tracer,
                           WorkloadResult* result) {
  auto rig = std::make_unique<Rig>();
  aud::BoardConfig board;
  board.speakers = plan.speakers + 1;  // + the probe's speaker
  rig->world = std::make_unique<World>(board, options.trace);
  rig->client = Client::Connect(*rig->world, "prompt_mix", tracer);
  if (rig->client == nullptr) {
    result->Fail("connect failed");
    return nullptr;
  }
  aud::AudioConnection& conn = rig->client->conn();
  rig->toolkit = std::make_unique<TimedToolkit>(&conn, tracer);
  std::vector<aud::AttrList> speakers;
  for (int s = 0; s <= plan.speakers; ++s) {
    speakers.push_back(SpeakerAttrs(*rig->client, s));
  }

  std::vector<ResourceId> sound_ids;
  for (const GenSound& sound : plan.catalogue) {
    sound_ids.push_back(rig->toolkit->Upload(sound));
  }
  rig->beep = rig->toolkit->Upload(plan.beep);

  auto build = [&](int speaker) {
    auto chain = rig->toolkit->Build(speakers[static_cast<size_t>(speaker)]);
    rig->speaker_of_player[chain.player] = speaker;
    return chain;
  };
  for (int c = 0; c < plan.chains; ++c) {
    rig->chains.push_back(build(c % plan.speakers));
  }
  rig->probe = build(plan.speakers);

  // Pre-issue: every chain's whole program, then start all queues.
  for (size_t c = 0; c < rig->chains.size(); ++c) {
    std::vector<aud::CommandSpec> program;
    const auto& items = plan.programs[c];
    for (size_t k = 0; k < items.size(); ++k) {
      program.push_back(aud::PlayCommand(rig->chains[c].player, sound_ids[items[k]],
                                         static_cast<uint32_t>(k + 1)));
    }
    conn.Enqueue(rig->chains[c].loud, program);
    conn.StartQueue(rig->chains[c].loud);
  }
  if (!conn.Sync().ok()) {
    result->Fail("set-up Sync failed");
    return nullptr;
  }
  DrainAsyncErrors(*rig->client, result, "set-up");
  return rig;
}

}  // namespace

WorkloadResult RunPromptMix(const Options& options) {
  WorkloadResult result;
  const uint64_t cache_budget = aud::ServerOptions{}.decoded_cache_bytes;
  const PromptMixPlan plan =
      MakePromptMixPlan(options.seed, 2 * cache_budget, options.seconds * kAudioPerWallSecond);
  // The oracle's own decode of every catalogue item (outside set-up time).
  std::vector<std::vector<Sample>> decoded;
  for (const GenSound& sound : plan.catalogue) {
    decoded.push_back(DecodeToEngineRate(sound, kEngineRate));
  }
  int64_t coverage_frames = INT64_MAX;
  for (const auto& program : plan.programs) {
    int64_t frames = 0;
    for (uint32_t item : program) {
      frames += static_cast<int64_t>(decoded[item].size());
    }
    coverage_frames = std::min(coverage_frames, frames);
  }
  result.notes.push_back("catalogue: " + std::to_string(plan.catalogue.size()) + " sounds (" +
                         std::to_string(plan.messages) + " messages), " +
                         std::to_string(plan.decoded_bytes >> 10) + " KiB decoded vs " +
                         std::to_string(cache_budget >> 10) + " KiB cache budget");

  Tracer tracer(options.trace, 0);
  SetupTimes setup_times;
  std::unique_ptr<Rig> rig =
      RepeatSetUp<Rig>([&] { return SetUp(plan, options, &tracer, &result); }, &setup_times);
  if (rig == nullptr) {
    return result;
  }
  Client& client = *rig->client;
  aud::AudioServer& server = rig->world->server();
  aud::Board& board = rig->world->board();

  // Sinks: each mix speaker's period lands in a buffer the oracle checks.
  std::vector<std::vector<Sample>> heard(static_cast<size_t>(plan.speakers));
  for (int s = 0; s < plan.speakers; ++s) {
    auto* buffer = &heard[static_cast<size_t>(s)];
    board.speakers()[static_cast<size_t>(s)]->set_sink(
        [buffer](std::span<const Sample> block) {
          buffer->insert(buffer->end(), block.begin(), block.end());
        });
  }
  PlayProbe probe;
  probe.Attach(board.speakers()[static_cast<size_t>(plan.speakers)]);
  std::vector<ReferenceMix> reference;
  for (int s = 0; s < plan.speakers; ++s) {
    std::vector<const std::vector<uint32_t>*> programs;
    for (int c = s; c < plan.chains; c += plan.speakers) {
      programs.push_back(&plan.programs[static_cast<size_t>(c)]);
    }
    reference.emplace_back(&decoded, std::move(programs));
  }

  auto stats_before = client.conn().GetServerStats(false);
  const ProcUsage usage_before = ReadProcUsage();
  const uint64_t requests_before = client.requests();

  std::vector<double> step_us, step_cpu_us, rtt_us, play_start_ms, event_wait_us;
  std::vector<uint64_t> trace_ids;
  std::vector<uint64_t> done_per_speaker(static_cast<size_t>(plan.speakers), 0);
  std::vector<Sample> expected;
  int64_t frames = 0;
  uint64_t ticks = 0;
  uint64_t mismatched_ticks = 0;
  uint32_t probe_tag = 0;          // tag of the beep in flight, 0 = idle
  int64_t probe_sent_ns = 0;
  uint64_t probes_sent = 0;
  uint64_t probes_done = 0;
  bool cut_by_coverage = false;

  auto drain_events = [&] {
    aud::EventMessage event;
    while (client.conn().PollEvent(&event)) {
      if (event.type != aud::EventType::kCommandDone) {
        continue;
      }
      const auto args = aud::CommandDoneArgs::Decode(event.args);
      if (args.tag >= kProbeTagBase) {
        if (args.tag == probe_tag) {
          event_wait_us.push_back(static_cast<double>(NowNs() - probe_sent_ns) / 1000.0);
          ++probes_done;
          probe_tag = 0;
        }
        continue;
      }
      auto it = rig->speaker_of_player.find(event.resource);
      if (it != rig->speaker_of_player.end() && args.aborted == 0) {
        ++done_per_speaker[static_cast<size_t>(it->second)];
      }
    }
  };

  const int64_t window_ns = static_cast<int64_t>(options.seconds) * 1000000000;
  const int64_t t_start = NowNs();
  uint64_t next_probe_tick = 1;
  uint64_t next_check_tick = kCheckTimeEveryTicks;
  client.StartRateBuckets(t_start);
  while (NowNs() - t_start < window_ns) {
    if (frames + static_cast<int64_t>(kPeriod) > coverage_frames) {
      cut_by_coverage = true;
      break;
    }
    const int32_t op = tracer.Begin(Layer::kOp, ticks + 1);
    {
      ScopedSpan span(tracer, Layer::kServerStep);
      // With ServerOptions{} (one engine thread) the tick runs on this
      // thread, so its CPU clock sees all of the tick's work.
      const int64_t t0 = NowNs();
      const int64_t cpu0 = ThreadCpuNs();
      server.StepFrames(kPeriod);
      step_cpu_us.push_back(static_cast<double>(ThreadCpuNs() - cpu0) / 1000.0);
      step_us.push_back(static_cast<double>(NowNs() - t0) / 1000.0);
    }
    tracer.End(op);
    frames += kPeriod;
    ++ticks;
    ++result.attempted;

    // Oracle: every speaker's period equals the reference mix, sample for
    // sample.
    bool tick_ok = true;
    for (int s = 0; s < plan.speakers; ++s) {
      auto& got = heard[static_cast<size_t>(s)];
      expected.clear();
      reference[static_cast<size_t>(s)].Render(kPeriod, &expected);
      if (got != expected) {
        if (tick_ok && mismatched_ticks < 4) {
          size_t i = 0;
          while (i < got.size() && i < expected.size() && got[i] == expected[i]) {
            ++i;
          }
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "speaker%d tick %llu: %zu samples heard vs %zu expected, first "
                        "difference at %zu",
                        s, static_cast<unsigned long long>(ticks), got.size(),
                        expected.size(), i);
          result.notes.push_back(std::string("CHECK FAILED: ") + buf);
        }
        tick_ok = false;
      }
      got.clear();
    }
    if (!tick_ok) {
      ++mismatched_ticks;
      ++result.failed;
      result.correct = false;
    }

    drain_events();
    double latency_ms = 0;
    if (probe.TakeLatency(&latency_ms)) {
      play_start_ms.push_back(latency_ms);
    }
    // The probe's Play goes out without waiting: it lands at the next epoch
    // boundary the stepping reaches, as a Play does under a loaded engine.
    if (ticks >= next_probe_tick && probe_tag == 0) {
      next_probe_tick = ticks + kProbeEveryTicks;
      probe_tag = kProbeTagBase + static_cast<uint32_t>(probes_sent);
      aud::EnqueueCommandsReq enqueue;
      enqueue.loud = rig->probe.loud;
      enqueue.commands.push_back(aud::PlayCommand(rig->probe.player, rig->beep, probe_tag));
      probe.Arm();
      probe_sent_ns = NowNs();
      client.Send(Opcode::kEnqueueCommands, enqueue);
      client.Send(Opcode::kStartQueue, aud::ResourceReq{rig->probe.loud});
      ++probes_sent;
      ++result.attempted;
    }
    // A blocking round trip: its reply must carry exactly the virtual time
    // stepped so far.
    if (ticks >= next_check_tick) {
      next_check_tick += kCheckTimeEveryTicks;
      double rtt = 0;
      auto now = client.CallEmpty<aud::ServerTimeReply>(Opcode::kGetServerTime, &rtt);
      ++result.attempted;
      trace_ids.push_back(client.conn().TraceIdFor(client.last_sequence()));
      if (!now.ok()) {
        result.Fail("GetServerTime: " + now.status().ToString());
      } else if (now.value().server_time != aud::SamplesToTicks(frames, kEngineRate)) {
        result.Fail("GetServerTime " + std::to_string(now.value().server_time) +
                    " != stepped " + std::to_string(aud::SamplesToTicks(frames, kEngineRate)));
      } else {
        rtt_us.push_back(rtt);
      }
    }
  }
  const double window_s = static_cast<double>(NowNs() - t_start) / 1e9;
  const ProcUsage usage_after = ReadProcUsage();
  const uint64_t window_requests = client.requests() - requests_before;
  auto stats_after = client.conn().GetServerStats(false);

  // Every play that ended inside the window reported CommandDone.
  if (!client.conn().Sync().ok()) {
    result.Fail("final Sync failed");
  }
  drain_events();
  for (int s = 0; s < plan.speakers; ++s) {
    const uint64_t finished = reference[static_cast<size_t>(s)].plays_finished();
    const uint64_t done = done_per_speaker[static_cast<size_t>(s)];
    // A play that ends on the window's last sample reports on the next tick.
    const uint64_t slack = static_cast<uint64_t>(plan.chains / plan.speakers);
    if (done > finished || finished - done > slack) {
      result.Fail("speaker" + std::to_string(s) + ": " + std::to_string(done) +
                  " CommandDone events for " + std::to_string(finished) + " finished plays");
    }
  }
  if (probes_sent - probes_done > 1) {
    result.Fail(std::to_string(probes_sent - probes_done) + " probe beeps never completed",
                probes_sent - probes_done - 1);
  }
  if (play_start_ms.size() + 1 < probes_sent) {
    result.Fail("probe beeps not heard: " +
                std::to_string(probes_sent - play_start_ms.size()));
  }
  DrainAsyncErrors(client, &result, "window");
  int64_t underruns = 0;
  for (int s = 0; s < plan.speakers; ++s) {
    underruns += board.speakers()[static_cast<size_t>(s)]->codec().underrun_frames();
  }
  if (cut_by_coverage) {
    result.notes.push_back("window ended early: pre-issued audio exhausted");
  }
  result.notes.push_back("ticks=" + std::to_string(ticks) + " audio_s=" +
                         std::to_string(static_cast<double>(frames) / kEngineRate) +
                         " mismatched_ticks=" + std::to_string(mismatched_ticks) +
                         " probes=" + std::to_string(probes_sent));

  auto e2e = [&](const char* name, double value, const char* unit, uint64_t n = 0) {
    result.Add(&result.e2e, name, value, unit, n);
  };
  AddSetupMetrics(setup_times, &result);
  e2e("rss_mb", usage_after.max_rss_mb, "MiB");
  AddEngineMetrics(step_cpu_us, static_cast<double>(frames) / kEngineRate, &result);
  // Every thread's CPU per request, as on control_rtt. Here it is mostly
  // the ticks and their check between two requests; the request and event
  // path alone varies too much with how events happen to batch.
  e2e("request_cpu_us",
      (usage_after.cpu_s - usage_before.cpu_s) * 1e6 /
          static_cast<double>(std::max<uint64_t>(window_requests, 1)),
      "us", window_requests);
  auto layer = [&](const char* name, double value, const char* unit, uint64_t n = 0) {
    result.Add(&result.layer, name, value, unit, n);
  };
  layer("requests_per_s", RobustRequestRate({&client}, window_s), "req/s", window_requests);
  layer("play_start_ms", Summarize(play_start_ms).p50, "ms", play_start_ms.size());
  layer("rtt_p50_us", Summarize(rtt_us).p50, "us", rtt_us.size());

  if (options.trace && stats_before.ok() && stats_after.ok()) {
    LayerInputs in;
    in.before = stats_before.value();
    in.after = stats_after.value();
    in.window_s = window_s;
    in.requests = window_requests;
    in.usage_before = usage_before;
    in.usage_after = usage_after;
    for (const GenSound& sound : plan.catalogue) {
      in.sounds.push_back(&sound.pcm);
    }
    in.underrun_frames = underruns;
    in.frames_out = board.speakers()[0]->codec().device_frames();
    in.step_us = step_us;
    in.event_wait_us = event_wait_us;
    in.upload_us = *NearestRank(rig->toolkit->upload_us(), 50);
    in.build_chain_us = *NearestRank(rig->toolkit->build_us(), 50);
    in.connect_us = client.connect_us();
    in.tracers = {&tracer};
    in.request_bytes = client.request_bytes();
    in.reply_bytes = client.reply_bytes();
    if (trace_ids.size() > 64) {
      trace_ids.erase(trace_ids.begin(), trace_ids.end() - 64);
    }
    std::vector<std::string> server_spans = StitchServerSpans(client, trace_ids);
    in.server_spans = server_spans.size();
    AddLayerMetrics(in, &result);
    if (!options.spans_path.empty() && !WriteSpans(options.spans_path, in.tracers, server_spans)) {
      result.notes.push_back("could not write spans to " + options.spans_path);
    }
  }
  return result;
}

}  // namespace perfbench
