// Alib client-library unit tests: connection lifecycle, reply/error
// multiplexing, event queue behaviour, id allocation and the blocking
// semantics of WaitReply ("blocking on a request with a reply is
// tantamount to synchronizing with the server", section 4.1).

#include <gtest/gtest.h>

#include "tests/server_fixture.h"

namespace aud {
namespace {

class AlibTest : public ServerFixture {};

TEST_F(AlibTest, SetupExposesServerMetadata) {
  EXPECT_TRUE(client_->connected());
  EXPECT_EQ(client_->server_name(), "netaudio");
  EXPECT_NE(client_->device_loud(), kNoResource);
}

TEST_F(AlibTest, BadSetupMagicRefused) {
  auto [client_end, server_end] = CreateSocketPair();
  server_->AddConnection(std::move(server_end));
  SetupRequest request;
  request.magic = 0xDEADBEEF;
  ByteWriter w;
  request.Encode(&w);
  ASSERT_TRUE(
      WriteMessage(client_end.get(), MessageType::kRequest, kSetupOpcode, 0, w.bytes()));
  auto reply = ReadMessage(client_end.get());
  ASSERT_TRUE(reply.has_value());
  ByteReader r(reply->payload);
  EXPECT_EQ(SetupReply::Decode(&r).success, 0);
}

TEST_F(AlibTest, IdAllocationIsSequentialWithinBlock) {
  ResourceId first = client_->AllocId();
  for (int i = 1; i <= 100; ++i) {
    EXPECT_EQ(client_->AllocId(), first + static_cast<ResourceId>(i));
  }
}

TEST_F(AlibTest, RepliesRouteBySequenceUnderInterleaving) {
  // Fire many queries without waiting, then collect replies in reverse
  // order: each WaitReply must return its own reply.
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  Flush();
  std::vector<uint32_t> seqs;
  for (int i = 0; i < 20; ++i) {
    ResourceReq req{loud};
    ByteWriter w;
    req.Encode(&w);
    seqs.push_back(client_->SendRequest(Opcode::kQueryLoud, w.bytes()));
  }
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    auto reply = client_->WaitReply(*it);
    ASSERT_TRUE(reply.ok());
    ByteReader r(reply.value());
    EXPECT_EQ(LoudStateReply::Decode(&r).loud, loud);
  }
}

TEST_F(AlibTest, WaitReplySurfacesErrorForItsSequence) {
  ResourceReq req{0xBAD0BAD};
  ByteWriter w;
  req.Encode(&w);
  uint32_t seq = client_->SendRequest(Opcode::kQueryLoud, w.bytes());
  auto reply = client_->WaitReply(seq);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), ErrorCode::kBadResource);
  // The error was consumed by WaitReply but remains observable in the
  // async queue too (single notification contract: drained below).
  AsyncError error;
  while (client_->NextError(&error)) {
  }
}

TEST_F(AlibTest, WaitEventTimesOutCleanly) {
  EventMessage event;
  EXPECT_FALSE(client_->WaitEvent(&event, 50));
}

TEST_F(AlibTest, PollEventReturnsQueuedEventsInOrder) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->SelectEvents(loud, kLifecycleEvents);
  client_->MapLoud(loud);
  client_->UnmapLoud(loud);
  Flush();
  std::vector<EventType> order;
  EventMessage event;
  while (client_->PollEvent(&event)) {
    order.push_back(event.type);
  }
  ASSERT_GE(order.size(), 3u);
  EXPECT_EQ(order[0], EventType::kMapNotify);
  // Activate follows map; unmap and deactivate follow in some order after.
  EXPECT_EQ(order[1], EventType::kActivateNotify);
}

TEST_F(AlibTest, CloseUnblocksPendingWaits) {
  auto client2 = Connect("closer");
  ASSERT_NE(client2, nullptr);
  std::thread waiter([&] {
    EventMessage event;
    EXPECT_FALSE(client2->WaitEvent(&event, 10000));  // unblocked by Close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client2->Close();
  waiter.join();
  EXPECT_FALSE(client2->connected());
}

TEST_F(AlibTest, RequestsAfterServerShutdownFailGracefully) {
  auto client2 = Connect("orphan");
  ASSERT_NE(client2, nullptr);
  ASSERT_TRUE(client2->Sync().ok());
  // Simulate server-side close of this connection's stream by closing our
  // end; further round trips fail with kConnection.
  client2->Close();
  auto result = client2->Sync();
  EXPECT_FALSE(result.ok());
}

TEST_F(AlibTest, EventsCarryServerTime) {
  ResourceId loud = client_->CreateLoud(kNoResource, {});
  client_->CreateDevice(loud, DeviceClass::kOutput, {});
  client_->SelectEvents(loud, kLifecycleEvents);
  StepMs(250);
  client_->MapLoud(loud);
  Flush();
  EventMessage event;
  ASSERT_TRUE(client_->WaitEvent(&event, 1000));
  EXPECT_GE(event.server_time, 250 * kTicksPerMillisecond);
}

TEST_F(AlibTest, CommandBuildersEncodeDeviceAndTag) {
  CommandSpec spec = SendDtmfCommand(42, "123#", 7);
  EXPECT_EQ(spec.device, 42u);
  EXPECT_EQ(spec.command, DeviceCommand::kSendDtmf);
  EXPECT_EQ(spec.tag, 7u);
  EXPECT_EQ(StringArg::Decode(spec.args).value, "123#");

  CommandSpec co = CoBeginCommand();
  EXPECT_EQ(co.device, kNoResource);
  EXPECT_TRUE(IsQueuePseudoCommand(co.command));
}

}  // namespace
}  // namespace aud
