// The benchmark's own tests: the reference mixer (saturation included) on
// hand-computed cases, nearest-rank percentiles and the ten-beyond rule on
// known vectors, and the seeded generator's determinism. The check that
// every printed metric name is declared in BENCHMARK.json runs from
// perfbench/run.py --selftest, which has the file at hand.

#include <gtest/gtest.h>

#include "src/gen.h"
#include "src/refmix.h"
#include "src/stats.h"

namespace perfbench {
namespace {

TEST(ReferenceMixer, ChainsPlayProgramsBackToBack) {
  const std::vector<std::vector<Sample>> decoded = {{1, 2, 3}, {10, 20}};
  const std::vector<uint32_t> chain_a = {0, 1};
  const std::vector<uint32_t> chain_b = {1};
  ReferenceMix mix(&decoded, {&chain_a, &chain_b});
  std::vector<Sample> out;
  mix.Render(4, &out);
  EXPECT_EQ(out, (std::vector<Sample>{11, 22, 3, 10}));
  EXPECT_EQ(mix.plays_finished(), 2u);  // chain_a's first, chain_b's only
  out.clear();
  mix.Render(3, &out);
  EXPECT_EQ(out, (std::vector<Sample>{20, 0, 0}));
  EXPECT_EQ(mix.plays_finished(), 3u);
}

TEST(ReferenceMixer, SaturatesAcrossChains) {
  const std::vector<std::vector<Sample>> decoded = {{32000, -32000}};
  const std::vector<uint32_t> program = {0};
  ReferenceMix mix(&decoded, {&program, &program});
  std::vector<Sample> out;
  mix.Render(2, &out);
  EXPECT_EQ(out, (std::vector<Sample>{32767, -32768}));
}

TEST(ReferenceMixer, IntermediateOverflowDoesNotClipEarly) {
  // 20000 + 20000 - 30000 = 10000: a 16-bit running sum would have clipped
  // at 32767 after the second chain and given 2767.
  const std::vector<std::vector<Sample>> decoded = {{20000}, {-30000}};
  const std::vector<uint32_t> loud = {0};
  const std::vector<uint32_t> quiet = {1};
  ReferenceMix mix(&decoded, {&loud, &loud, &quiet});
  std::vector<Sample> out;
  mix.Render(1, &out);
  EXPECT_EQ(out, (std::vector<Sample>{10000}));
}

TEST(ReferenceMixer, DecodeMatchesLinearPcm) {
  Rng rng(7);
  GenSound sound = MakeSound(rng, {aud::Encoding::kPcm16, 8000}, 0.05, 3000);
  EXPECT_EQ(DecodeToEngineRate(sound, 8000), sound.pcm);
  GenSound wide = MakeSound(rng, {aud::Encoding::kAdpcm4, 16000}, 0.05, 3000);
  // 16k -> 8k halves the sample count (within one sample).
  const auto narrow = DecodeToEngineRate(wide, 8000);
  EXPECT_NEAR(static_cast<double>(narrow.size()), wide.pcm.size() / 2.0, 1.0);
}

TEST(Percentiles, NearestRankOnKnownVectors) {
  // The classic nearest-rank example.
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(*NearestRank(v, 5), 15);
  EXPECT_EQ(*NearestRank(v, 30), 20);
  EXPECT_EQ(*NearestRank(v, 40), 20);
  EXPECT_EQ(*NearestRank(v, 50), 35);
  EXPECT_EQ(*NearestRank(v, 100), 50);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) {
    hundred.push_back(i);  // unsorted input
  }
  EXPECT_EQ(*NearestRank(hundred, 50), 50);
  EXPECT_EQ(*NearestRank(hundred, 99), 99);
  EXPECT_EQ(*NearestRank(hundred, 99.9), 100);
  EXPECT_FALSE(NearestRank({}, 50).has_value());
}

TEST(Percentiles, TenSamplesBeyondRule) {
  EXPECT_TRUE(SupportsPercentile(1000, 99));   // rank 990, 10 beyond
  EXPECT_FALSE(SupportsPercentile(999, 99));   // rank 990, 9 beyond
  EXPECT_TRUE(SupportsPercentile(20, 50));     // rank 10, 10 beyond
  EXPECT_FALSE(SupportsPercentile(19, 50));
  EXPECT_EQ(*HighestSupportedPercentile(100), 90);
  EXPECT_EQ(*HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(*HighestSupportedPercentile(10000), 99.9);
  EXPECT_FALSE(HighestSupportedPercentile(19).has_value());
  const Summary s = Summarize(std::vector<double>(999, 1.0));
  EXPECT_EQ(s.top_p, 90);
}

TEST(Percentiles, ReservoirKeepsAUniformSampleOfFixedSize) {
  Reservoir small(8, 1);
  for (int i = 0; i < 5; ++i) {
    small.Add(i);
  }
  EXPECT_EQ(small.values(), (std::vector<double>{0, 1, 2, 3, 4}));
  Reservoir big(1000, 1);
  for (int i = 0; i < 100000; ++i) {
    big.Add(i);
  }
  EXPECT_EQ(big.seen(), 100000u);
  ASSERT_EQ(big.values().size(), 1000u);
  // The sample's median lies near the stream's (49999.5).
  EXPECT_NEAR(*NearestRank(big.values(), 50), 50000, 5000);
}

TEST(Generator, EqualSeedsGiveIdenticalInputs) {
  for (const char* workload : {"prompt_mix", "control_rtt"}) {
    EXPECT_EQ(WorkloadFingerprint(workload, 42), WorkloadFingerprint(workload, 42)) << workload;
  }
}

TEST(Generator, DifferentSeedsGiveDifferentInputs) {
  for (const char* workload : {"prompt_mix", "control_rtt"}) {
    EXPECT_NE(WorkloadFingerprint(workload, 42), WorkloadFingerprint(workload, 43)) << workload;
  }
}

TEST(Generator, PromptCatalogueReachesItsTarget) {
  const PromptMixPlan plan = MakePromptMixPlan(5, 4 << 20, 30.0);
  EXPECT_GE(plan.decoded_bytes, 4u << 20);
  EXPECT_EQ(plan.messages, 16u);
  ASSERT_EQ(plan.programs.size(), static_cast<size_t>(plan.chains));
  for (const auto& program : plan.programs) {
    double seconds = 0;
    for (uint32_t item : program) {
      seconds += plan.catalogue[item].seconds;
    }
    EXPECT_GE(seconds, 30.0);
  }
}

}  // namespace
}  // namespace perfbench
