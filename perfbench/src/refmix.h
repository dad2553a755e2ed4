// The output oracle for prompt_mix: an independent reference of what every
// speaker must play. Each catalogue sound is decoded once with the public
// dsp StreamDecoder/Resampler, placed at its pre-issued gapless offset on
// its chain, and the chains of one speaker are summed in 32 bits and
// saturated to 16 — "without a single dropped or inserted sample".

#ifndef PERFBENCH_SRC_REFMIX_H_
#define PERFBENCH_SRC_REFMIX_H_

#include <cstdint>
#include <vector>

#include "src/gen.h"

namespace perfbench {

// Decodes `sound`'s encoded bytes and resamples them to `engine_rate`.
std::vector<Sample> DecodeToEngineRate(const GenSound& sound, uint32_t engine_rate);

// Streams the reference output of a set of chains, each playing its
// program of sounds back to back from frame 0.
class ReferenceMix {
 public:
  // `decoded[i]` is catalogue item i at the engine rate; programs index it.
  ReferenceMix(const std::vector<std::vector<Sample>>* decoded,
               std::vector<const std::vector<uint32_t>*> programs);

  // Appends the next `frames` of the mix to `out`.
  void Render(size_t frames, std::vector<Sample>* out);

  // Plays (per chain, summed) that have finished by the current frame.
  uint64_t plays_finished() const { return plays_finished_; }

 private:
  struct Cursor {
    const std::vector<uint32_t>* program = nullptr;
    size_t item = 0;    // index into *program
    size_t offset = 0;  // samples of that item already rendered
  };
  const std::vector<std::vector<Sample>>* decoded_;
  std::vector<Cursor> cursors_;
  std::vector<int32_t> acc_;
  uint64_t plays_finished_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REFMIX_H_
