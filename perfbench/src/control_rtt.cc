// control_rtt: the per-message-cost workload. The engine runs in realtime
// (20 ms period) with four background chains playing; two application
// connections each run a closed loop of X-style turns — a seeded burst of
// 1-8 asynchronous requests ended by one blocking query whose reply is
// checked against the state the turn's requests produced. Connection A
// also polls GetServerStats at 10 Hz (as audiotop does); connection B
// plays the probe beep, one at a time, for play-start latency.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/client.h"
#include "src/gen.h"
#include "src/probe.h"
#include "src/stats.h"

namespace perfbench {

namespace {

constexpr int64_t kStatsEveryNs = 100'000'000;  // 10 Hz
constexpr int kRpcDeadlineMs = 5000;
constexpr char kPropertyName[] = "perfbench.turn";
// Round trips kept per connection: a fixed-size uniform sample of the
// window's, so the peak RSS does not follow the round-trip rate.
constexpr size_t kRttSamples = 1 << 16;

// One application connection and the objects its turns act on.
struct App {
  std::unique_ptr<Client> client;
  std::unique_ptr<Tracer> tracer;
  ResourceId app_loud = aud::kNoResource;  // map/raise/property target
  aud::AudioToolkit::PlaybackChain beep_chain;
  ResourceId beep = aud::kNoResource;
  std::vector<double> upload_us;
  std::vector<double> build_us;
};

struct Rig {
  std::unique_ptr<World> world;
  App apps[2];
  aud::AudioToolkit::PlaybackChain probe_chain;
};

std::unique_ptr<Rig> SetUp(const ControlRttPlan& plan, const Options& options,
                           WorkloadResult* result) {
  auto rig = std::make_unique<Rig>();
  aud::BoardConfig board;
  board.speakers = 3;  // 0-1 background + beeps, 2 the probe
  rig->world = std::make_unique<World>(board, options.trace);
  for (int c = 0; c < 2; ++c) {
    App& app = rig->apps[c];
    app.tracer = std::make_unique<Tracer>(options.trace, c);
    app.client = Client::Connect(*rig->world, c == 0 ? "control_rtt-a" : "control_rtt-b",
                                 app.tracer.get());
    if (app.client == nullptr) {
      result->Fail("connect failed");
      return nullptr;
    }
    app.client->conn().set_rpc_deadline_ms(kRpcDeadlineMs);
  }
  std::vector<aud::AttrList> speakers;
  for (int s = 0; s < board.speakers; ++s) {
    speakers.push_back(SpeakerAttrs(*rig->apps[0].client, s));
  }
  for (int c = 0; c < 2; ++c) {
    App& app = rig->apps[c];
    aud::AudioConnection& conn = app.client->conn();
    TimedToolkit toolkit(&conn, app.tracer.get());
    auto build = [&](int speaker) { return toolkit.Build(speakers[static_cast<size_t>(speaker)]); };
    app.beep = toolkit.Upload(plan.beep);
    app.beep_chain = build(1);
    app.app_loud = build(c).loud;
    // Two background chains per connection, playing for the whole run.
    for (int k = 0; k < 2; ++k) {
      const GenSound& bg = plan.background[static_cast<size_t>(2 * c + k)];
      ResourceId sound = toolkit.Upload(bg);
      auto chain = build(k);
      const int plays = 2 + static_cast<int>(options.seconds / bg.seconds);
      conn.Enqueue(chain.loud,
                   std::vector<aud::CommandSpec>(static_cast<size_t>(plays),
                                                 aud::PlayCommand(chain.player, sound)));
      conn.StartQueue(chain.loud);
    }
    if (c == 1) {
      rig->probe_chain = build(2);
    }
    if (!conn.Sync().ok()) {
      result->Fail("set-up Sync failed");
      return nullptr;
    }
    DrainAsyncErrors(*app.client, result, "set-up");
    app.upload_us = toolkit.upload_us();
    app.build_us = toolkit.build_us();
  }
  rig->world->server().StartRealtime();
  return rig;
}

// What one connection's closed loop measured and checked.
struct LoopOutcome {
  explicit LoopOutcome(uint64_t seed) : rtt_us(kRttSamples, seed) {}
  Reservoir rtt_us;
  std::vector<double> event_wait_us;
  std::vector<uint64_t> trace_ids;
  std::vector<std::string> failures;
  uint64_t operations = 0;
  uint64_t requests = 0;
  uint64_t turns = 0;
  uint64_t beeps_sent = 0;
  uint64_t beeps_done = 0;
  uint64_t stats_polls = 0;
};

class TurnLoop {
 public:
  TurnLoop(App& app, int index, uint64_t seed, ProbeDriver* probe)
      : app_(app), index_(index), turns_(seed, index), probe_(probe), out_(seed + index) {}

  void Run(int64_t deadline_ns) {
    Client& client = *app_.client;
    const uint64_t requests_before = client.requests();
    int64_t next_stats = NowNs();
    while (NowNs() < deadline_ns && out_.failures.size() < 16) {
      RunTurn();
      DrainEvents();
      if (index_ == 0 && NowNs() >= next_stats) {
        next_stats += kStatsEveryNs;
        ++out_.operations;
        ++out_.stats_polls;
        auto stats = client.conn().GetServerStats(true);
        if (!stats.ok()) {
          Fail("GetServerStats: " + stats.status().ToString());
        }
      }
      if (probe_ != nullptr && probe_->Poll(client)) {
        ++out_.operations;
      }
    }
    // Let in-flight beeps finish: each must report CommandDone.
    const int64_t settle = NowNs() + 2'000'000'000;
    auto probe_busy = [&] { return probe_ != nullptr && !probe_->idle(); };
    while ((beep_tag_ != 0 || probe_busy()) && NowNs() < settle) {
      aud::EventMessage event;
      if (client.conn().WaitEvent(&event, 50)) {
        HandleEvent(event);
      }
    }
    if (beep_tag_ != 0) {
      Fail("beep " + std::to_string(beep_tag_) + " never reported CommandDone");
    }
    if (probe_busy()) {
      Fail("probe beep never reported CommandDone");
    }
    out_.requests = client.requests() - requests_before;
  }

  LoopOutcome& outcome() { return out_; }

 private:
  void Fail(const std::string& why) { out_.failures.push_back(why); }

  void RunTurn() {
    Client& client = *app_.client;
    Tracer& tracer = *app_.tracer;
    const Turn turn = turns_.Next();
    ++out_.turns;
    ++out_.operations;
    const int32_t op = tracer.Begin(Layer::kOp);
    for (AsyncKind kind : turn.burst) {
      switch (kind) {
        case AsyncKind::kChangeProperty: {
          aud::ChangePropertyReq req;
          req.resource = app_.app_loud;
          req.name = kPropertyName;
          req.type = "BYTES";
          req.value = turn.property_value;
          client.Send(Opcode::kChangeProperty, req);
          property_ = turn.property_value;
          break;
        }
        case AsyncKind::kMapUnmap:
          if (mapped_) {
            client.Send(Opcode::kUnmapLoud, aud::ResourceReq{app_.app_loud});
          } else {
            client.Send(Opcode::kMapLoud, aud::MapLoudReq{app_.app_loud, 0});
          }
          mapped_ = !mapped_;
          break;
        case AsyncKind::kRaiseLower:
          // Restacking needs a mapped LOUD; an unmapped one is mapped instead.
          if (!mapped_) {
            client.Send(Opcode::kMapLoud, aud::MapLoudReq{app_.app_loud, 0});
            mapped_ = true;
          } else {
            raise_ = !raise_;
            client.Send(raise_ ? Opcode::kRaiseLoud : Opcode::kLowerLoud,
                        aud::MapLoudReq{app_.app_loud, 0});
          }
          break;
        case AsyncKind::kSelectEvents:
          client.Send(Opcode::kSelectEvents,
                      aud::SelectEventsReq{app_.app_loud, turn.select_mask & aud::kAllEvents});
          break;
        case AsyncKind::kBeep:
          // At most one beep in flight per connection; a turn that draws a
          // beep while one plays re-sends StartQueue (a no-op on a started
          // queue), so the request count stays the seed's.
          if (beep_tag_ == 0) {
            beep_tag_ = ++beeps_;
            ++out_.beeps_sent;
            ++out_.operations;
            beep_sent_ns_ = NowNs();
            aud::EnqueueCommandsReq enqueue;
            enqueue.loud = app_.beep_chain.loud;
            enqueue.commands.push_back(
                aud::PlayCommand(app_.beep_chain.player, app_.beep, beep_tag_));
            client.Send(Opcode::kEnqueueCommands, enqueue);
          }
          client.Send(Opcode::kStartQueue, aud::ResourceReq{app_.beep_chain.loud});
          queue_started_ = true;
          break;
        case AsyncKind::kCount:
          break;
      }
    }
    Query(turn.query);
    tracer.SetOp(op, client.conn().TraceIdFor(client.last_sequence()));
    tracer.End(op);
    if (tracer.enabled()) {  // the last 32 turns, for stitching server spans
      if (out_.trace_ids.size() == 32) {
        out_.trace_ids.erase(out_.trace_ids.begin());
      }
      out_.trace_ids.push_back(client.conn().TraceIdFor(client.last_sequence()));
    }
  }

  // The turn's blocking query; its round trip runs from its send to its
  // decoded reply (the burst before it is processed first, in order).
  void Query(QueryKind kind) {
    Client& client = *app_.client;
    const int64_t t0 = NowNs();
    std::string bad;
    bool ok = true;
    switch (kind) {
      case QueryKind::kQueryQueue: {
        auto r = client.Call<aud::QueueStateReply>(Opcode::kQueryQueue,
                                                   aud::ResourceReq{app_.beep_chain.loud});
        ok = r.ok();
        if (ok) {
          const auto& q = r.value();
          const auto want_state =
              queue_started_ ? aud::QueueState::kStarted : aud::QueueState::kStopped;
          if (q.loud != app_.beep_chain.loud || q.state != want_state || q.depth > 1 ||
              (beep_tag_ == 0 && q.depth != 0)) {
            bad = "QueryQueue: state " + std::to_string(static_cast<int>(q.state)) +
                  " depth " + std::to_string(q.depth);
          }
        } else {
          bad = "QueryQueue: " + r.status().ToString();
        }
        break;
      }
      case QueryKind::kQueryLoud: {
        auto r = client.Call<aud::LoudStateReply>(Opcode::kQueryLoud,
                                                  aud::ResourceReq{app_.app_loud});
        ok = r.ok();
        if (!ok) {
          bad = "QueryLoud: " + r.status().ToString();
        } else if ((r.value().mapped != 0) != mapped_) {
          bad = "QueryLoud: mapped=" + std::to_string(r.value().mapped);
        }
        break;
      }
      case QueryKind::kGetProperty: {
        auto r = client.Call<aud::PropertyReply>(
            Opcode::kGetProperty, aud::NamedPropertyReq{app_.app_loud, kPropertyName});
        ok = r.ok();
        if (!ok) {
          bad = "GetProperty: " + r.status().ToString();
        } else if ((r.value().found != 0) != !property_.empty() ||
                   r.value().value != property_) {
          bad = "GetProperty: value differs from the last ChangeProperty";
        }
        break;
      }
      case QueryKind::kGetServerTime: {
        auto r = client.CallEmpty<aud::ServerTimeReply>(Opcode::kGetServerTime);
        ok = r.ok();
        if (!ok) {
          bad = "GetServerTime: " + r.status().ToString();
        } else if (r.value().server_time < server_time_) {
          bad = "GetServerTime went backwards";
        } else {
          server_time_ = r.value().server_time;
        }
        break;
      }
      case QueryKind::kQuerySound: {
        auto r = client.Call<aud::SoundInfoReply>(Opcode::kQuerySound,
                                                  aud::ResourceReq{app_.beep});
        ok = r.ok();
        if (!ok) {
          bad = "QuerySound: " + r.status().ToString();
        } else if (r.value().samples != 800) {
          bad = "QuerySound: " + std::to_string(r.value().samples) + " samples, want 800";
        }
        break;
      }
      case QueryKind::kCount:
        break;
    }
    const double rtt = static_cast<double>(NowNs() - t0) / 1000.0;
    if (!bad.empty()) {
      Fail(bad);
    } else if (ok) {
      out_.rtt_us.Add(rtt);
    }
  }

  void HandleEvent(const aud::EventMessage& event) {
    if (event.type != aud::EventType::kCommandDone) {
      return;
    }
    if (probe_ != nullptr && probe_->HandleEvent(event)) {
      return;
    }
    const auto args = aud::CommandDoneArgs::Decode(event.args);
    if (beep_tag_ != 0 && args.tag == beep_tag_ && event.resource == app_.beep_chain.player) {
      out_.event_wait_us.push_back(static_cast<double>(NowNs() - beep_sent_ns_) / 1000.0);
      ++out_.beeps_done;
      beep_tag_ = 0;
    }
  }

  void DrainEvents() {
    aud::EventMessage event;
    while (app_.client->conn().PollEvent(&event)) {
      HandleEvent(event);
    }
  }

  App& app_;
  int index_;
  TurnStream turns_;
  ProbeDriver* probe_;
  LoopOutcome out_;
  bool mapped_ = true;  // BuildPlaybackChain maps
  bool raise_ = false;
  bool queue_started_ = false;
  std::vector<uint8_t> property_;
  int64_t server_time_ = 0;
  uint32_t beeps_ = 0;
  uint32_t beep_tag_ = 0;
  int64_t beep_sent_ns_ = 0;
};

}  // namespace

WorkloadResult RunControlRtt(const Options& options) {
  WorkloadResult result;
  const ControlRttPlan plan = MakeControlRttPlan(options.seed);
  SetupTimes setup_times;
  std::unique_ptr<Rig> rig =
      RepeatSetUp<Rig>([&] { return SetUp(plan, options, &result); }, &setup_times);
  if (rig == nullptr) {
    return result;
  }
  aud::Board& board = rig->world->board();
  PlayProbe probe;
  probe.Attach(board.speakers()[2]);
  Client& stats_client = *rig->apps[0].client;

  auto stats_before = stats_client.conn().GetServerStats(false);
  const ProcUsage usage_before = ReadProcUsage();
  probe.RecordEngineCpu(true);
  ProbeDriver probe_driver(&probe, rig->probe_chain.loud, rig->probe_chain.player,
                           rig->apps[1].beep);
  TurnLoop loop_a(rig->apps[0], 0, options.seed, nullptr);
  TurnLoop loop_b(rig->apps[1], 1, options.seed, &probe_driver);
  const int64_t t_start = NowNs();
  const int64_t deadline = t_start + static_cast<int64_t>(options.seconds) * 1'000'000'000;
  for (const App& app : rig->apps) {
    app.client->StartRateBuckets(t_start);
  }
  std::thread thread_b([&] { loop_b.Run(deadline); });
  loop_a.Run(deadline);
  thread_b.join();
  const double window_s = static_cast<double>(NowNs() - t_start) / 1e9;
  probe.RecordEngineCpu(false);
  const ProcUsage usage_after = ReadProcUsage();
  auto stats_after = stats_client.conn().GetServerStats(false);

  // Both connections' round-trip samples, each weighing the same.
  std::vector<double> rtt_us, event_wait_us;
  std::vector<uint64_t> trace_ids;
  uint64_t requests = 0;
  uint64_t rtt_seen = 0;
  for (TurnLoop* loop : {&loop_a, &loop_b}) {
    LoopOutcome& out = loop->outcome();
    rtt_us.insert(rtt_us.end(), out.rtt_us.values().begin(), out.rtt_us.values().end());
    rtt_seen += out.rtt_us.seen();
    event_wait_us.insert(event_wait_us.end(), out.event_wait_us.begin(),
                         out.event_wait_us.end());
    trace_ids.insert(trace_ids.end(), out.trace_ids.begin(), out.trace_ids.end());
    requests += out.requests;
    result.attempted += out.operations;
    for (const std::string& why : out.failures) {
      result.Fail(why);
    }
    result.notes.push_back("connection: turns=" + std::to_string(out.turns) +
                           " beeps=" + std::to_string(out.beeps_done) + "/" +
                           std::to_string(out.beeps_sent) +
                           " stats_polls=" + std::to_string(out.stats_polls));
  }
  const std::vector<double>& play_start_ms = probe_driver.latencies_ms();
  result.notes.push_back("probes=" + std::to_string(probe_driver.sent()));
  if (play_start_ms.empty()) {
    result.Fail("probe beeps were never heard");
  }
  for (int c = 0; c < 2; ++c) {
    DrainAsyncErrors(*rig->apps[c].client, &result, "window");
  }

  auto e2e = [&](const char* name, double value, const char* unit, uint64_t n = 0) {
    result.Add(&result.e2e, name, value, unit, n);
  };
  AddSetupMetrics(setup_times, &result);
  e2e("rss_mb", usage_after.max_rss_mb, "MiB");
  const std::vector<double> period_cpu_us = probe.engine_cpu_us();
  const double period_s = static_cast<double>(aud::ServerOptions{}.period_frames) /
                          static_cast<double>(board.sample_rate_hz());
  AddEngineMetrics(period_cpu_us, static_cast<double>(period_cpu_us.size()) * period_s,
                   &result);
  // Every thread's CPU: the two client loops, Alib readers and the server.
  e2e("request_cpu_us",
      (usage_after.cpu_s - usage_before.cpu_s) * 1e6 /
          static_cast<double>(std::max<uint64_t>(requests, 1)),
      "us", requests);
  auto layer = [&](const char* name, double value, const char* unit, uint64_t n = 0) {
    result.Add(&result.layer, name, value, unit, n);
  };
  layer("requests_per_s",
        RobustRequestRate({rig->apps[0].client.get(), rig->apps[1].client.get()}, window_s),
        "req/s", requests);
  layer("play_start_ms", Summarize(play_start_ms).p50, "ms", play_start_ms.size());
  layer("rtt_p50_us", Summarize(rtt_us).p50, "us", rtt_us.size());
  const Summary rtt = Summarize(rtt_us);
  result.notes.push_back("rtt tail: p" + std::to_string(rtt.top_p) + "=" +
                         std::to_string(rtt.top_value) + " us (n=" + std::to_string(rtt.n) +
                         " sampled of " + std::to_string(rtt_seen) + ")");

  if (options.trace && stats_before.ok() && stats_after.ok()) {
    LayerInputs in;
    in.before = stats_before.value();
    in.after = stats_after.value();
    in.window_s = window_s;
    in.requests = requests;
    in.usage_before = usage_before;
    in.usage_after = usage_after;
    for (const GenSound& sound : plan.background) {
      in.sounds.push_back(&sound.pcm);
    }
    int64_t underruns = 0;
    for (auto* speaker : board.speakers()) {
      underruns += speaker->codec().underrun_frames();
    }
    in.underrun_frames = underruns;
    in.frames_out = board.speakers()[0]->codec().device_frames();
    in.event_wait_us = event_wait_us;
    std::vector<double> uploads, builds, connects;
    for (const App& app : rig->apps) {
      uploads.insert(uploads.end(), app.upload_us.begin(), app.upload_us.end());
      builds.insert(builds.end(), app.build_us.begin(), app.build_us.end());
      connects.push_back(app.client->connect_us());
      in.request_bytes += app.client->request_bytes();
      in.reply_bytes += app.client->reply_bytes();
      in.tracers.push_back(app.tracer.get());
    }
    in.upload_us = *NearestRank(uploads, 50);
    in.build_chain_us = *NearestRank(builds, 50);
    in.connect_us = *NearestRank(connects, 50);
    std::vector<std::string> server_spans = StitchServerSpans(stats_client, trace_ids);
    in.server_spans = server_spans.size();
    AddLayerMetrics(in, &result);
    if (!options.spans_path.empty() && !WriteSpans(options.spans_path, in.tracers, server_spans)) {
      result.notes.push_back("could not write spans to " + options.spans_path);
    }
  }
  return result;
}

}  // namespace perfbench
