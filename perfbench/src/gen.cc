#include "src/gen.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "src/dsp/encoding.h"

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * (static_cast<double>(Next() >> 11) * 0x1.0p-53);
}

Zipf::Zipf(size_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) {
    c /= total;
  }
}

size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Uniform(0.0, 1.0);
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void Fingerprint::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h_ = (h_ ^ p[i]) * 1099511628211ull;
  }
}

GenSound MakeSound(Rng& rng, AudioFormat format, double seconds, int amplitude) {
  GenSound sound;
  sound.format = format;
  sound.seconds = seconds;
  const size_t n = static_cast<size_t>(std::llround(seconds * format.sample_rate_hz));
  sound.pcm.resize(n);
  const double rate = format.sample_rate_hz;
  const double f1 = rng.Uniform(180.0, 900.0);
  const double f2 = rng.Uniform(900.0, 3200.0);
  const double drift = rng.Uniform(0.2, 1.5);  // Hz of slow amplitude drift
  const double phase = rng.Uniform(0.0, 2 * std::numbers::pi);
  Rng noise(rng.Next());
  const double two_pi = 2 * std::numbers::pi;
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / rate;
    const double env = 0.55 + 0.45 * std::sin(two_pi * drift * t + phase);
    double v = 0.6 * std::sin(two_pi * f1 * t) + 0.3 * std::sin(two_pi * f2 * t + phase);
    v = v * env + noise.Uniform(-0.1, 0.1);
    sound.pcm[i] = static_cast<Sample>(std::lround(v * amplitude));
  }
  aud::StreamEncoder encoder(format.encoding);
  encoder.Encode(sound.pcm, &sound.encoded);
  return sound;
}

AudioFormat CatalogueFormat(size_t index) {
  static const AudioFormat kFormats[] = {
      {aud::Encoding::kMulaw8, 8000},
      {aud::Encoding::kAlaw8, 8000},
      {aud::Encoding::kPcm16, 8000},
      {aud::Encoding::kAdpcm4, 16000},
  };
  return kFormats[index % 4];
}

namespace {

constexpr uint32_t kEngineRate = 8000;

GenSound MakeBeep(Rng& rng) {
  return MakeSound(rng, {aud::Encoding::kPcm16, 8000}, 0.1, 6000);
}

void AddSound(Fingerprint& fp, const GenSound& s) {
  fp.AddU64(static_cast<uint64_t>(s.format.encoding));
  fp.AddU64(s.format.sample_rate_hz);
  fp.Add(s.encoded.data(), s.encoded.size());
}

}  // namespace

PromptMixPlan MakePromptMixPlan(uint64_t seed, uint64_t decoded_target_bytes,
                                double program_seconds) {
  PromptMixPlan plan;
  // The seed picks the sounds' content and the plays drawn. The catalogue's
  // layout (each item's duration, format and popularity rank) is the same
  // for every seed, so that seeds differ in inputs but not in how much work
  // and cache pressure they make.
  Rng rng(seed ^ 0x70726F6D70746D78ull);
  Rng layout(0x6C61796F75740001ull);
  auto shuffle = [&](auto& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[layout.Below(i)]);
    }
  };
  // Durations evenly spread over a range, in shuffled order.
  auto spread = [&](size_t n, double lo, double hi) {
    std::vector<double> d;
    for (size_t k = 0; k < n; ++k) {
      d.push_back(lo + (hi - lo) * (static_cast<double>(k) + 0.5) / static_cast<double>(n));
    }
    shuffle(d);
    return d;
  };
  // 16 messages of 10-30 s, then 0.5-4 s prompts (2.25 s on average) up to
  // the target's engine-rate size. Formats take turns.
  std::vector<double> durations = spread(16, 10.0, 30.0);
  double seconds = 0;
  for (double d : durations) {
    seconds += d;
  }
  const double target_seconds = static_cast<double>(decoded_target_bytes) / 2 / kEngineRate;
  const auto prompts =
      static_cast<size_t>(std::ceil(std::max(0.0, target_seconds - seconds) / 2.25));
  for (double d : spread(prompts, 0.5, 4.0)) {
    durations.push_back(d);
  }
  for (double d : durations) {
    AudioFormat format = CatalogueFormat(plan.catalogue.size());
    plan.catalogue.push_back(MakeSound(rng, format, d, 1800));
    plan.decoded_bytes += 2 * static_cast<uint64_t>(std::llround(d * kEngineRate));
  }
  plan.messages = 16;
  // Popularity: a fixed permutation of the catalogue ranked by Zipf(0.9).
  std::vector<uint32_t> by_rank(plan.catalogue.size());
  for (uint32_t i = 0; i < by_rank.size(); ++i) {
    by_rank[i] = i;
  }
  shuffle(by_rank);
  Zipf zipf(by_rank.size(), 0.9);
  // Every chain's program covers `program_seconds` of audio, so every
  // chain stays busy for the whole window whatever the seed drew.
  plan.programs.resize(static_cast<size_t>(plan.chains));
  for (auto& program : plan.programs) {
    for (double covered = 0; covered < program_seconds;) {
      const uint32_t item = by_rank[zipf.Draw(rng)];
      program.push_back(item);
      covered += plan.catalogue[item].seconds;
    }
  }
  plan.beep = MakeBeep(rng);
  return plan;
}

uint64_t FingerprintOf(const PromptMixPlan& plan) {
  Fingerprint fp;
  for (const GenSound& s : plan.catalogue) {
    AddSound(fp, s);
  }
  for (const auto& program : plan.programs) {
    fp.AddU64(program.size());
    fp.Add(program.data(), program.size() * sizeof(uint32_t));
  }
  AddSound(fp, plan.beep);
  return fp.value();
}

TurnStream::TurnStream(uint64_t seed, int connection)
    : rng_(seed ^ (0x636F6E74726F6C00ull + static_cast<uint64_t>(connection))) {}

Turn TurnStream::Next() {
  Turn turn;
  const size_t burst = 1 + rng_.Below(8);
  for (size_t i = 0; i < burst; ++i) {
    turn.burst.push_back(
        static_cast<AsyncKind>(rng_.Below(static_cast<uint64_t>(AsyncKind::kCount))));
  }
  turn.query = static_cast<QueryKind>(rng_.Below(static_cast<uint64_t>(QueryKind::kCount)));
  turn.property_value.resize(8 + rng_.Below(57));
  for (uint8_t& b : turn.property_value) {
    b = static_cast<uint8_t>(rng_.Next());
  }
  turn.select_mask = static_cast<uint32_t>(rng_.Next());
  return turn;
}

ControlRttPlan MakeControlRttPlan(uint64_t seed) {
  ControlRttPlan plan;
  Rng rng(seed ^ 0x6374726C72747470ull);
  // One background sound in each catalogue format, in a seeded order.
  const size_t first_format = rng.Below(4);
  for (size_t i = 0; i < 4; ++i) {
    plan.background.push_back(MakeSound(rng, CatalogueFormat(first_format + i), 30.0, 3000));
  }
  plan.beep = MakeBeep(rng);
  return plan;
}

uint64_t FingerprintOf(const ControlRttPlan& plan) {
  Fingerprint fp;
  for (const GenSound& s : plan.background) {
    AddSound(fp, s);
  }
  AddSound(fp, plan.beep);
  return fp.value();
}

uint64_t WorkloadFingerprint(const std::string& name, uint64_t seed) {
  if (name == "prompt_mix") {
    return FingerprintOf(MakePromptMixPlan(seed, 1 << 20, 60.0));
  }
  if (name == "control_rtt") {
    Fingerprint fp;
    fp.AddU64(FingerprintOf(MakeControlRttPlan(seed)));
    for (int c = 0; c < 2; ++c) {
      TurnStream turns(seed, c);
      for (int i = 0; i < 1000; ++i) {
        Turn t = turns.Next();
        fp.Add(t.burst.data(), t.burst.size());
        fp.AddU64(static_cast<uint64_t>(t.query));
        fp.Add(t.property_value.data(), t.property_value.size());
        fp.AddU64(t.select_mask);
      }
    }
    return fp.value();
  }
  return 0;
}

}  // namespace perfbench
