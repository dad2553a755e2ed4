// Decoded-PCM cache tests: hit/miss/byte accounting through GetServerStats,
// bit-identical speaker output with the cache on vs off (including the
// ADPCM-at-16kHz decode+resample case), invalidation when a sound is
// rewritten, and LRU eviction under a tiny budget.

#include <gtest/gtest.h>

#include "src/dsp/encoding.h"
#include "tests/server_fixture.h"

namespace aud {
namespace {

class CacheTest : public ServerFixture {
 protected:
  ServerStatsReply Stats() {
    auto stats = client_->GetServerStats(false);
    EXPECT_TRUE(stats.ok());
    return stats.ok() ? stats.value() : ServerStatsReply{};
  }
};

TEST_F(CacheTest, RepeatPlaysHitTheCacheAndShowInStats) {
  auto tone = TestTone(200);
  ResourceId sound = toolkit_->UploadSound(tone, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  ExpectNoErrors();

  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  ServerStatsReply after_first = Stats();
  EXPECT_GE(after_first.stats_version, 2u);
  EXPECT_EQ(after_first.decoded_cache_misses, 1u);
  EXPECT_EQ(after_first.decoded_cache_hits, 0u);
  // mu-law 8k decodes 1:1, two bytes of PCM per encoded byte.
  EXPECT_EQ(after_first.decoded_cache_bytes, tone.size() * sizeof(Sample));

  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  ServerStatsReply after_third = Stats();
  EXPECT_EQ(after_third.decoded_cache_misses, 1u);
  EXPECT_EQ(after_third.decoded_cache_hits, 2u);
  EXPECT_EQ(after_third.decoded_cache_evictions, 0u);
  ExpectNoErrors();
}

TEST_F(CacheTest, DestroyingTheSoundReleasesCacheBytes) {
  auto tone = TestTone(100);
  ResourceId sound = toolkit_->UploadSound(tone, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  ASSERT_GT(Stats().decoded_cache_bytes, 0u);

  client_->DestroySound(sound);
  Flush();
  EXPECT_EQ(Stats().decoded_cache_bytes, 0u);
  ExpectNoErrors();
}

TEST_F(CacheTest, RewriteInvalidatesAndReplaysNewData) {
  board_->speakers()[0]->set_capture_output(true);

  // DC marker sounds make the served generation visible in the output.
  std::vector<Sample> first(2000, 1000);
  ResourceId sound = toolkit_->UploadSound(first, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));

  // Overwrite the whole sound; the cached decode keyed by the old
  // generation must not be served again.
  std::vector<Sample> second(2000, -2000);
  StreamEncoder enc(Encoding::kPcm16);
  std::vector<uint8_t> bytes;
  enc.Encode(second, &bytes);
  client_->WriteSound(sound, 0, bytes);
  Flush();

  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  StepMs(100);

  const std::vector<Sample>& played = board_->speakers()[0]->played();
  size_t old_gen = 0, new_gen = 0;
  for (Sample s : played) {
    old_gen += s == 1000 ? 1 : 0;
    new_gen += s == -2000 ? 1 : 0;
  }
  EXPECT_EQ(old_gen, first.size());
  EXPECT_EQ(new_gen, second.size());

  // Two distinct generations: two misses, and the second play's decode was
  // inserted under the new key.
  ServerStatsReply stats = Stats();
  EXPECT_EQ(stats.decoded_cache_misses, 2u);
  ExpectNoErrors();
}

TEST_F(CacheTest, TinyBudgetEvictsLeastRecentlyUsed) {
  // Budget fits one decoded sound (8000 bytes) but not two.
  ServerOptions options;
  options.decoded_cache_bytes = 10000;
  Init(BoardConfig{}, options);

  std::vector<Sample> a(4000, 700), b(4000, -900);
  ResourceId sa = toolkit_->UploadSound(a, {Encoding::kPcm16, 8000});
  ResourceId sb = toolkit_->UploadSound(b, {Encoding::kPcm16, 8000});
  auto chain = toolkit_->BuildPlaybackChain();
  ExpectNoErrors();

  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sa));  // miss, resident
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sb));  // miss, evicts A
  ServerStatsReply stats = Stats();
  EXPECT_EQ(stats.decoded_cache_misses, 2u);
  EXPECT_EQ(stats.decoded_cache_evictions, 1u);
  EXPECT_EQ(stats.decoded_cache_bytes, b.size() * sizeof(Sample));

  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sa));  // A was evicted: miss again
  EXPECT_EQ(Stats().decoded_cache_misses, 3u);
  ExpectNoErrors();
}

TEST_F(CacheTest, DisabledCacheNeverCounts) {
  ServerOptions options;
  options.decoded_cache_bytes = 0;
  Init(BoardConfig{}, options);

  auto tone = TestTone(100);
  ResourceId sound = toolkit_->UploadSound(tone, kTelephoneFormat);
  auto chain = toolkit_->BuildPlaybackChain();
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));
  ASSERT_TRUE(toolkit_->PlayAndWait(chain, sound));

  ServerStatsReply stats = Stats();
  EXPECT_EQ(stats.decoded_cache_hits, 0u);
  EXPECT_EQ(stats.decoded_cache_misses, 0u);
  EXPECT_EQ(stats.decoded_cache_bytes, 0u);
  ExpectNoErrors();
}

// Runs the same two-play workload with the given cache budget and returns
// everything the speaker played.
std::vector<Sample> PlayTwiceAndCapture(size_t cache_bytes) {
  Board board((BoardConfig()));
  ServerOptions options;
  options.decoded_cache_bytes = cache_bytes;
  AudioServer server(&board, options);
  auto [client_end, server_end] = CreateSocketPair();
  server.AddConnection(std::move(server_end));
  auto client = AudioConnection::Open(std::move(client_end), "cache-compare");
  AudioToolkit toolkit(client.get());
  toolkit.set_time_pump([&server] { server.StepFrames(160); });
  board.speakers()[0]->set_capture_output(true);

  // A 16 kHz ADPCM sound: playback runs the stateful decoder AND the
  // 16k -> 8k resampler, the two stages the cache snapshots.
  std::vector<Sample> signal(3210);
  for (size_t i = 0; i < signal.size(); ++i) {
    signal[i] = static_cast<Sample>(9000.0 * std::sin(0.07 * static_cast<double>(i)));
  }
  ResourceId sound = toolkit.UploadSound(signal, {Encoding::kAdpcm4, 16000});
  auto chain = toolkit.BuildPlaybackChain();
  // Both plays in one queue: gapless back-to-back, so the audio between
  // first and last nonzero sample is timing-independent. (Separate
  // PlayAndWait calls would leave a pump-scheduling-dependent silence gap
  // between the plays.)
  client->Enqueue(chain.loud, {PlayCommand(chain.player, sound, 1),
                               PlayCommand(chain.player, sound, 2)});
  client->StartQueue(chain.loud);
  EXPECT_TRUE(toolkit.WaitCommandDone(2, 30000));
  server.StepFrames(1600);

  std::vector<Sample> played = board.speakers()[0]->played();
  server.Shutdown();

  // How much silence brackets the plays depends on wall-clock pump timing;
  // trim it so only the deterministic content is compared.
  size_t first = 0;
  while (first < played.size() && played[first] == 0) {
    ++first;
  }
  size_t last = played.size();
  while (last > first && played[last - 1] == 0) {
    --last;
  }
  return std::vector<Sample>(played.begin() + static_cast<ptrdiff_t>(first),
                             played.begin() + static_cast<ptrdiff_t>(last));
}

TEST(CacheBitIdentity, CachedPlaybackMatchesIncrementalExactly) {
  std::vector<Sample> cached = PlayTwiceAndCapture(8 * 1024 * 1024);
  std::vector<Sample> incremental = PlayTwiceAndCapture(0);
  ASSERT_GT(cached.size(), 1000u);  // both plays actually produced audio
  ASSERT_EQ(cached.size(), incremental.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    ASSERT_EQ(cached[i], incremental[i]) << "first divergence at sample " << i;
  }
}

}  // namespace
}  // namespace aud
