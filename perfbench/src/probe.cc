#include "src/probe.h"

namespace perfbench {

namespace {

constexpr int64_t kPeriodNs = 20'000'000;
// Beeps go out a quarter period after a tick: the phase is fixed, so the
// latency does not depend on where sends fall, and the three quarters left
// before the next tick absorb dispatch delays on a loaded host.
constexpr int64_t kSendPhaseNs = kPeriodNs / 4;
constexpr uint32_t kProbeTagBase = 1u << 30;

}  // namespace

void ProbeDriver::Schedule() {
  int64_t due = probe_->last_block_ns() + kSendPhaseNs;
  while (due < NowNs() + kPeriodNs) {
    due += kPeriodNs;
  }
  due_ns_ = due;
}

bool ProbeDriver::Poll(Client& client) {
  double ms = 0;
  if (probe_->TakeLatency(&ms)) {
    latencies_ms_.push_back(ms);
  }
  if (tag_ != 0) {
    return false;
  }
  if (due_ns_ == 0) {
    Schedule();
  }
  if (NowNs() < due_ns_) {
    return false;
  }
  tag_ = kProbeTagBase + static_cast<uint32_t>(sent_);
  ++sent_;
  aud::EnqueueCommandsReq enqueue;
  enqueue.loud = loud_;
  enqueue.commands.push_back(aud::PlayCommand(player_, beep_, tag_));
  probe_->Arm();
  client.Send(Opcode::kEnqueueCommands, enqueue);
  client.Send(Opcode::kStartQueue, aud::ResourceReq{loud_});
  return true;
}

bool ProbeDriver::HandleEvent(const aud::EventMessage& event) {
  if (event.type != aud::EventType::kCommandDone || event.resource != player_) {
    return false;
  }
  if (aud::CommandDoneArgs::Decode(event.args).tag == tag_) {
    tag_ = 0;
    Schedule();
  }
  return true;
}

}  // namespace perfbench
