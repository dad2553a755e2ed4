#include "src/trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// Spans written per tracer; the self-time summary still covers them all.
constexpr size_t kMaxSpansWritten = 50000;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kWireEncode:
      return "wire.encode";
    case Layer::kAlibSend:
      return "alib.send";
    case Layer::kAlibWait:
      return "alib.wait";
    case Layer::kWireDecode:
      return "wire.decode";
    case Layer::kServerStep:
      return "server.step";
    case Layer::kToolkitUpload:
      return "toolkit.upload";
    case Layer::kToolkitBuild:
      return "toolkit.build_chain";
    case Layer::kTransportConnect:
      return "transport.connect";
    case Layer::kCount:
      break;
  }
  return "unknown";
}

int32_t Tracer::Begin(Layer layer, uint64_t op_id) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.layer = layer;
  span.op_id = op_id;
  span.parent = open_.empty() ? -1 : open_.back();
  if (op_id == 0 && span.parent >= 0) {
    span.op_id = spans_[static_cast<size_t>(span.parent)].op_id;
  }
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after `index`.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == index) {
      break;
    }
  }
}

void Tracer::SetOp(int32_t index, uint64_t op_id) {
  if (index >= 0) {
    spans_[static_cast<size_t>(index)].op_id = op_id;
  }
}

std::vector<double> Tracer::Durations(Layer layer) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.end_ns >= s.start_ns && s.end_ns != 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::map<Layer, double> Tracer::SelfTimeNs() const {
  // Children of one parent never overlap (one thread, properly nested), so
  // the covered time is the sum of the children's durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns != 0) {
      child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<Layer, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns == 0) {
      continue;
    }
    self[s.layer] += std::max(0.0, static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]);
  }
  return self;
}

double SpanPairCostNs() {
  std::vector<double> per_pair;
  for (int round = 0; round < 5; ++round) {
    Tracer tracer(true, 0);
    constexpr int kPairs = 20000;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kPairs; ++i) {
      tracer.End(tracer.Begin(Layer::kAlibSend, 1));
    }
    per_pair.push_back(static_cast<double>(NowNs() - t0) / kPairs);
  }
  std::sort(per_pair.begin(), per_pair.end());
  return per_pair[per_pair.size() / 2];
}

bool WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers,
                const std::vector<std::string>& extra_lines) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::map<Layer, double> self_total;
  uint64_t total = 0;
  uint64_t written = 0;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    total += spans.size();
    const size_t keep = std::min(spans.size(), kMaxSpansWritten);
    written += keep;
    for (size_t i = 0; i < keep; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%d,\"id\":%zu,\"parent\":%d,\"op\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   tracer->thread(), i, s.parent, static_cast<unsigned long long>(s.op_id),
                   LayerName(s.layer), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    for (const auto& [layer, ns] : tracer->SelfTimeNs()) {
      self_total[layer] += ns;
    }
  }
  for (const std::string& line : extra_lines) {
    std::fprintf(f, "%s\n", line.c_str());
  }
  std::fprintf(f, "{\"spans\":%llu,\"spans_written\":%llu,\"self_time_us\":{",
               static_cast<unsigned long long>(total), static_cast<unsigned long long>(written));
  bool first = true;
  for (const auto& [layer, ns] : self_total) {
    std::fprintf(f, "%s\"%s\":%.3f", first ? "" : ",", LayerName(layer), ns / 1000.0);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
