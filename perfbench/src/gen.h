// Seeded input generation. Every input the server receives — sound
// content, encodings, play programs, request kinds, property values — is a
// pure function of the workload seed, so equal seeds replay identical
// traffic and Fingerprint() proves it.

#ifndef PERFBENCH_SRC_GEN_H_
#define PERFBENCH_SRC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sample.h"

namespace perfbench {

using aud::AudioFormat;
using aud::Sample;

// SplitMix64: tiny, fast, and fully specified, so a seed means the same
// stream on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  // Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

 private:
  uint64_t state_;
};

// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double exponent);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// FNV-1a accumulator for input fingerprints.
class Fingerprint {
 public:
  void Add(const void* data, size_t bytes);
  void AddU64(uint64_t v) { Add(&v, sizeof v); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// One generated sound: its format, linear content at its native rate and
// the encoded bytes the client uploads.
struct GenSound {
  AudioFormat format;
  std::vector<Sample> pcm;
  std::vector<uint8_t> encoded;
  double seconds = 0;
};

// Synthesizes `seconds` of seeded voice-band content (two drifting partials
// plus noise) at `format`'s rate, peak about `amplitude`, and encodes it.
GenSound MakeSound(Rng& rng, AudioFormat format, double seconds, int amplitude);

// The four formats prompt_mix's catalogue uses.
AudioFormat CatalogueFormat(size_t index);  // index mod 4

// -- prompt_mix ---------------------------------------------------------------

struct PromptMixPlan {
  int speakers = 4;       // mix speakers; the probe speaker comes after them
  int chains = 256;
  std::vector<GenSound> catalogue;
  size_t messages = 0;    // catalogue[0, messages) are 10-30 s messages
  uint64_t decoded_bytes = 0;  // catalogue size at the engine rate, 2 B/sample
  // Per chain: catalogue indices played back to back.
  std::vector<std::vector<uint32_t>> programs;
  GenSound beep;          // the probe's 100 ms beep (PCM16 8k)
};

// `decoded_target_bytes`: catalogue size to reach at the engine rate;
// `program_seconds`: audio each chain's pre-issued queue should cover.
PromptMixPlan MakePromptMixPlan(uint64_t seed, uint64_t decoded_target_bytes,
                                double program_seconds);
uint64_t FingerprintOf(const PromptMixPlan& plan);

// -- control_rtt --------------------------------------------------------------

enum class AsyncKind : uint8_t {
  kChangeProperty,
  kMapUnmap,
  kRaiseLower,
  kSelectEvents,
  kBeep,  // Enqueue + StartQueue of the 100 ms beep
  kCount,
};

enum class QueryKind : uint8_t {
  kQueryQueue,
  kQueryLoud,
  kGetProperty,
  kGetServerTime,
  kQuerySound,
  kCount,
};

struct Turn {
  std::vector<AsyncKind> burst;  // 1-8 async requests
  QueryKind query = QueryKind::kGetServerTime;
  std::vector<uint8_t> property_value;  // value ChangeProperty sets this turn
  uint32_t select_mask = 0;
};

// An endless seeded stream of turns for one application connection.
class TurnStream {
 public:
  TurnStream(uint64_t seed, int connection);
  Turn Next();

 private:
  Rng rng_;
};

struct ControlRttPlan {
  std::vector<GenSound> background;  // 4 x 30 s, one per background chain
  GenSound beep;                     // 100 ms PCM16 8k
};

ControlRttPlan MakeControlRttPlan(uint64_t seed);
uint64_t FingerprintOf(const ControlRttPlan& plan);

// Fingerprint of whichever workload `name` names (0 for an unknown name),
// with small sizes: used by the self-test.
uint64_t WorkloadFingerprint(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GEN_H_
