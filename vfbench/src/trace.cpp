#include "trace.hpp"

#include <fstream>
#include <stdexcept>

namespace vfbench {

std::string_view layer_of(const Span& s) {
  const std::string_view n(s.name);
  return n.substr(0, n.find('.'));
}

void Tracer::arm(std::size_t reserve) {
  on_ = true;
  spans_.reserve(reserve);
  open_.reserve(8);
}

int Tracer::open(const char* name, std::int64_t t0) {
  Span s;
  s.name = name;
  s.start_ns = t0;
  s.step = step_;
  s.parent = open_.empty() ? -1 : open_.back();
  // Snapshot now; close() turns these into deltas.
  s.data_msgs = stats_->data_messages;
  s.data_bytes = stats_->data_bytes;
  spans_.push_back(s);
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void Tracer::close(int idx, std::int64_t t1) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = t1;
  s.data_msgs = stats_->data_messages - s.data_msgs;
  s.data_bytes = stats_->data_bytes - s.data_bytes;
  open_.pop_back();
}

std::vector<std::int64_t> self_ns(const std::vector<Span>& s) {
  std::vector<std::int64_t> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = s[i].dur_ns();
  for (const Span& c : s) {
    if (c.parent >= 0) out[static_cast<std::size_t>(c.parent)] -= c.dur_ns();
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& per_rank,
                        std::int64_t origin_ns) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    for (const Span& s : per_rank[r]) {
      f << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << layer_of(s) << "\",\"ph\":\"X\",\"ts\":"
        << static_cast<double>(s.start_ns - origin_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns()) / 1e3
        << ",\"pid\":0,\"tid\":" << r << ",\"args\":{\"step\":" << s.step
        << ",\"data_bytes\":" << s.data_bytes << "}}";
      first = false;
    }
  }
  f << "\n],\"displayTimeUnit\":\"ms\"}\n";
  if (!f) throw std::runtime_error("error writing trace file " + path);
}

}  // namespace vfbench
