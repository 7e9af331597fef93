#include "vf/msg/run_plan.hpp"

#include <cstring>
#include <type_traits>

namespace vf::msg {

namespace {

/// Whether one listed run of n elements takes fewer bytes than the m
/// sections holding them.  Once true it stays true as small sections
/// join: each adds sizeof(Run) to the left and at most kListedMax
/// offsets, fewer bytes, to the right.
bool listing_saves(std::size_t m, std::size_t n) {
  return m * sizeof(Run) > sizeof(Run) + n * sizeof(std::size_t);
}

/// Stable counting sort of one side's runs by peer, then the fold of each
/// peer's runs into sections.
RunSide group(const RunPlanBuilder::Side& side, std::size_t np) {
  std::vector<std::uint32_t> start(np + 1, 0);
  for (const std::uint32_t p : side.peers) ++start[p + 1];
  for (std::size_t p = 0; p < np; ++p) start[p + 1] += start[p];
  std::vector<RunPlanBuilder::Side::Span> grouped(side.runs.size());
  std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
  for (std::size_t k = 0; k < side.runs.size(); ++k) {
    grouped[next[side.peers[k]]++] = side.runs[k];
  }
  RunSideBuilder b(static_cast<int>(np));
  for (std::size_t p = 0; p < np; ++p) {
    for (std::uint32_t k = start[p]; k < start[p + 1]; ++k) {
      b.add(grouped[k].offset, grouped[k].length);
    }
    b.end_peer();
  }
  return std::move(b).finish();
}

/// Calls f with the element width: a compile-time constant for the
/// fixed-width cases, the runtime size otherwise.
template <typename F>
void with_width(std::size_t elem, F&& f) {
  switch (elem) {
    case 4:
      return f(std::integral_constant<std::size_t, 4>{});
    case 8:
      return f(std::integral_constant<std::size_t, 8>{});
    case 16:
      return f(std::integral_constant<std::size_t, 16>{});
    default:
      return f(elem);
  }
}

}  // namespace

RunSideBuilder::RunSideBuilder(int np) {
  const auto n = static_cast<std::size_t>(np);
  side_.runs.reserve(n);  // room for one section per peer
  side_.start.reserve(n + 1);
  side_.counts.reserve(n);
  side_.start.push_back(0);
}

void RunSideBuilder::end_peer() {
  close_row();
  if (has_sec_) emit(sec_);
  has_sec_ = false;
  end_stretch();
  side_.start.push_back(static_cast<std::uint32_t>(side_.runs.size()));
  side_.counts.push_back(count_);
  count_ = 0;
}

void RunSideBuilder::emit(const Run& sec) {
  if (sec.elements() > kListedMax) {
    end_stretch();
    side_.runs.push_back(sec);
    return;
  }
  if (small_sections_++ == 0) small_first_ = side_.index.size();
  for (std::size_t i = 0; i < sec.rows; ++i) {
    for (std::size_t c = 0; c < sec.length; ++c) {
      side_.index.push_back(sec.offset + i * sec.row_stride + c * sec.step);
    }
  }
  const std::size_t n = side_.index.size() - small_first_;
  if (listing_saves(small_sections_, n)) {
    small_.clear();
  } else {
    small_.push_back(sec);
  }
}

void RunSideBuilder::end_stretch() {
  if (small_sections_ == 0) return;
  const std::size_t n = side_.index.size() - small_first_;
  if (listing_saves(small_sections_, n)) {
    side_.runs.push_back(Run{small_first_, n, 0, 1, 0});
  } else {
    side_.runs.insert(side_.runs.end(), small_.begin(), small_.end());
    side_.index.resize(small_first_);
  }
  small_.clear();
  small_sections_ = 0;
}

RunSide RunSideBuilder::finish() && {
  side_.runs.shrink_to_fit();
  side_.index.shrink_to_fit();
  return std::move(side_);
}

RunPlan RunPlanBuilder::finish() const {
  const auto n = static_cast<std::size_t>(np);
  return RunPlan{group(pack, n), group(unpack, n)};
}

void pack(const RunSide& side, const std::byte* storage, ExchangeLane& lane) {
  with_width(lane.elem_size(), [&](auto e) {
    for (int p = 0; p < lane.peers(); ++p) {
      detail::walk_runs(
          side, p, storage, lane.send_bytes(p).data(), e,
          [e](const std::byte* s, std::size_t step, std::byte* b,
              std::size_t n) {
            if (step == 1) {
              std::memcpy(b, s, n * e);
              return;
            }
            for (std::size_t k = 0; k < n; ++k) {
              std::memcpy(b + k * e, s + k * step * e, e);
            }
          });
    }
  });
}

void pack(const RunPlan& plan, const std::byte* storage, std::size_t elem_size,
          ExchangeLane& lane) {
  lane.prepare(plan.pack.counts, plan.unpack.counts, elem_size);
  pack(plan.pack, storage, lane);
}

void unpack(const RunSide& side, int peer, std::span<const std::byte> payload,
            std::byte* storage, std::size_t elem_size) {
  with_width(elem_size, [&](auto e) {
    detail::walk_runs(side, peer, storage, payload.data(), e,
                      [e](std::byte* s, std::size_t step, const std::byte* b,
                          std::size_t n) {
                        if (step == 1) {
                          std::memcpy(s, b, n * e);
                          return;
                        }
                        for (std::size_t k = 0; k < n; ++k) {
                          std::memcpy(s + k * step * e, b + k * e, e);
                        }
                      });
  });
}

}  // namespace vf::msg
