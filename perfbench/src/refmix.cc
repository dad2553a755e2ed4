#include "src/refmix.h"

#include <algorithm>

#include "src/dsp/encoding.h"
#include "src/dsp/resampler.h"

namespace perfbench {

namespace {

Sample Saturate(int32_t v) {
  return static_cast<Sample>(std::clamp<int32_t>(v, INT16_MIN, INT16_MAX));
}

}  // namespace

std::vector<Sample> DecodeToEngineRate(const GenSound& sound, uint32_t engine_rate) {
  std::vector<Sample> linear;
  aud::StreamDecoder decoder(sound.format.encoding);
  decoder.Decode(sound.encoded, &linear);
  if (sound.format.sample_rate_hz == engine_rate) {
    return linear;
  }
  std::vector<Sample> out;
  aud::Resampler resampler(sound.format.sample_rate_hz, engine_rate);
  resampler.Process(linear, &out);
  return out;
}

ReferenceMix::ReferenceMix(const std::vector<std::vector<Sample>>* decoded,
                           std::vector<const std::vector<uint32_t>*> programs)
    : decoded_(decoded) {
  for (const std::vector<uint32_t>* program : programs) {
    cursors_.push_back(Cursor{program, 0, 0});
  }
}

void ReferenceMix::Render(size_t frames, std::vector<Sample>* out) {
  acc_.assign(frames, 0);
  for (Cursor& c : cursors_) {
    size_t pos = 0;
    while (pos < frames && c.item < c.program->size()) {
      const std::vector<Sample>& pcm = (*decoded_)[(*c.program)[c.item]];
      const size_t n = std::min(frames - pos, pcm.size() - c.offset);
      for (size_t i = 0; i < n; ++i) {
        acc_[pos + i] += pcm[c.offset + i];
      }
      pos += n;
      c.offset += n;
      if (c.offset == pcm.size()) {
        ++c.item;
        c.offset = 0;
        ++plays_finished_;
      }
    }
  }
  const size_t base = out->size();
  out->resize(base + frames);
  for (size_t i = 0; i < frames; ++i) {
    (*out)[base + i] = Saturate(acc_[i]);
  }
}

}  // namespace perfbench
