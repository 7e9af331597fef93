// The one plan format and the one executor of the run-based data motion:
// the DISTRIBUTE statement's redistribution (paper Section 3.2.2), the
// overlap-area exchange (Section 3.2.1) and the PARTI executors (Section
// 3.2 with its reference [15]) all work the data motion out once, as
// runs of local memory, and replay it through pack/unpack.
//
// A Run is a 2-D regular section: `rows` rows of `length` elements, where
// element c of row r sits at offset + r * row_stride + c * step.  Its
// elements travel in row-major order, so a run of one contiguous span is
// {offset, length} with step 1 and one row.  A RunSide lists the runs of
// one side of a transfer (what a rank packs, or where it unpacks), grouped
// by peer in CSR form: peer p's runs are runs[start[p], start[p+1]).
// Within one peer the runs keep the enumeration order both sides of the
// transfer agree on, so the sender's packed buffer and the receiver's
// unpack walk consume the same elements in the same order and only values
// travel.  The per-peer element counts are the pre-agreed counts of the
// counted exchange (Context::alltoallv_known_into / begin_exchange), so
// replaying a plan needs no count collective.
//
// Builders emit contiguous runs (or single elements) one at a time; the
// fold (RunSideBuilder and RunPlanBuilder::finish) merges a peer's
// consecutive runs into sections where that is exact: a run that
// continues the tail row extends it (contiguous, or at a constant element
// step), and a closed row of the tail's shape at a constant offset delta
// becomes its next row.  A fold never lets two elements of one section
// share an offset, so the walk order inside a section cannot change which
// write lands last or the order of accumulation.  A BLOCK -> CYCLIC(1)
// flip or a column face of the overlap area is one section per peer.
//
// What does not fold -- the unordered points of an irregular PARTI
// schedule, an INDIRECT mapping -- would leave a section per element or
// two.  So each peer's stretches of sections of at most kListedMax
// elements become one listed run (step 0) wherever that takes fewer
// bytes: its elements' offsets sit in the side's index array, 8 bytes per
// element, and are walked in order.
//
// The executor is one walker, element-type independent: a step-1 section
// is `rows` memcpys of length * elem bytes; a strided one is copied in
// tiles of a few columns, so the rows of one tile, which share cache
// lines when the row stride is small, fetch each line once; a listed run
// is copied element by element.  Elements of 4, 8 and 16 bytes copy at
// fixed width, others by memcpy.  pack, unpack and the typed accumulate
// of scatter_add all run through it.  Data that never leaves the rank
// skips the buffer: build_like lays one side out in another's run shape,
// and zip_runs pairs the two element by element.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "vf/msg/exchange_scratch.hpp"

namespace vf::msg {

/// One 2-D regular section of local memory, or one listed run (see the
/// file comment).
struct Run {
  std::size_t offset = 0;      ///< element offset of row 0, column 0;
                               ///< listed: first entry in RunSide::index
  std::size_t length = 0;      ///< elements per row
  std::size_t step = 1;        ///< element step inside a row; 0 = listed
  std::size_t rows = 1;        ///< number of rows (1 when listed)
  std::size_t row_stride = 0;  ///< element offset between rows

  [[nodiscard]] bool listed() const noexcept { return step == 0; }
  [[nodiscard]] std::size_t elements() const noexcept {
    return rows * length;
  }
};

/// The runs of one side of a transfer, grouped by peer, with the element
/// count each peer's runs hold.
struct RunSide {
  std::vector<Run> runs;               ///< sections, grouped by peer
  std::vector<std::uint32_t> start;    ///< np + 1 offsets into runs
  std::vector<std::uint64_t> counts;   ///< elements per peer
  std::vector<std::size_t> index;      ///< offsets of the listed runs

  [[nodiscard]] std::span<const Run> peer(int p) const noexcept {
    const auto up = static_cast<std::size_t>(p);
    return {runs.data() + start[up], runs.data() + start[up + 1]};
  }

  /// Heap bytes held (cache byte budgeting).
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return runs.capacity() * sizeof(Run) +
           start.capacity() * sizeof(std::uint32_t) +
           counts.capacity() * sizeof(std::uint64_t) +
           index.capacity() * sizeof(std::size_t);
  }
};

struct RunPlan {
  RunSide pack;    ///< send runs: send counts per peer
  RunSide unpack;  ///< receive runs: receive counts per peer

  /// Heap + inline bytes this plan holds (cache byte budgeting).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    return sizeof(RunPlan) + pack.heap_bytes() + unpack.heap_bytes();
  }
};

namespace detail {

/// Extends the row `t` by the run `x` when x continues it: contiguously
/// after a step-1 row, or as the next element at the row's step (the
/// second element of a one-element row fixes the step).
inline bool extend_row(Run& t, const Run& x) noexcept {
  if (t.step == 1 && x.offset == t.offset + t.length) {
    t.length += x.length;
    return true;
  }
  if (x.length != 1) return false;
  if (t.length == 1) {
    if (x.offset <= t.offset) return false;
    t.step = x.offset - t.offset;
    t.length = 2;
    return true;
  }
  if (x.offset != t.offset + t.length * t.step) return false;
  ++t.length;
  return true;
}

/// Appends the row `t` to the section `s` when it has s's row shape and
/// sits one row stride past s's last row (the second row fixes the
/// stride), and the grown section still has no two elements at one
/// offset.  Elements o + r*R + c*S of rows r and r + a coincide exactly
/// when a*R == b*S for some 0 < b < length; the smallest such pair is
/// (S/g, R/g) with g = gcd(R, S); for contiguous rows (S = 1) that is
/// R < length.
inline bool append_row(Run& s, const Run& t) noexcept {
  if (t.length != s.length || t.step != s.step) return false;
  std::size_t stride = s.row_stride;
  if (s.rows == 1) {
    if (t.offset <= s.offset) return false;
    stride = t.offset - s.offset;
  } else if (t.offset != s.offset + s.rows * stride) {
    return false;
  }
  if (s.step == 1) {
    if (stride < s.length) return false;
  } else {
    const std::size_t g = std::gcd(stride, s.step);
    if (s.step / g < s.rows + 1 && stride / g < s.length) return false;
  }
  s.row_stride = stride;
  ++s.rows;
  return true;
}

}  // namespace detail

/// Builds a RunSide peer by peer (peer 0 first), folding each peer's runs
/// into sections as they arrive.  The fold keeps the peer's open tail row
/// and the section before it: a run that continues the tail extends it;
/// otherwise the tail is closed -- appended to the section as its next
/// row where that is exact -- and the run opens a new tail.  A closed
/// section of at most kListedMax elements joins the open stretch of small
/// sections, whose offsets go to the index at once; the stretch ends with
/// the next larger section or the peer, as one listed run if that takes
/// fewer bytes than its sections, else as those sections.
class RunSideBuilder {
 public:
  /// Largest section a stretch may list: below sizeof(Run) bytes of
  /// offsets.
  static constexpr std::size_t kListedMax = 4;

  explicit RunSideBuilder(int np);

  /// Appends the contiguous run [offset, offset + length) to the current
  /// peer.
  void add(std::size_t offset, std::size_t length) {
    if (length == 0) return;
    count_ += length;
    const Run x{offset, length};
    if (has_tail_ && detail::extend_row(tail_, x)) return;
    close_row();
    tail_ = x;
    has_tail_ = true;
  }
  /// Ends the current peer's runs; the next add() starts the next peer.
  void end_peer();
  [[nodiscard]] RunSide finish() &&;

 private:
  void close_row() {
    if (!has_tail_) return;
    has_tail_ = false;
    if (has_sec_ && detail::append_row(sec_, tail_)) return;
    if (has_sec_) emit(sec_);
    sec_ = tail_;
    has_sec_ = true;
  }
  void emit(const Run& sec);
  void end_stretch();

  RunSide side_;
  Run sec_;
  Run tail_;
  bool has_sec_ = false;
  bool has_tail_ = false;
  std::uint64_t count_ = 0;
  // The open stretch of small sections: its sections (kept only while
  // listing it would not yet save bytes -- from then on it always does),
  // how many there are, and where its offsets start in side_.index.
  std::vector<Run> small_;
  std::size_t small_sections_ = 0;
  std::size_t small_first_ = 0;
};

/// Assembles a RunPlan from the runs a plan builder emits in its
/// enumeration order, each tagged with its peer.  finish() groups each
/// side by peer with a stable counting sort and folds each peer's runs
/// through a RunSideBuilder, so every peer's elements keep their emission
/// order.
struct RunPlanBuilder {
  /// The contiguous runs of one side, in emission order.
  struct Side {
    struct Span {
      std::size_t offset;
      std::size_t length;
    };
    std::vector<Span> runs;
    std::vector<std::uint32_t> peers;

    void add(int peer, std::size_t offset, std::size_t length) {
      runs.push_back({offset, length});
      peers.push_back(static_cast<std::uint32_t>(peer));
    }
  };

  int np;
  Side pack;
  Side unpack;

  [[nodiscard]] RunPlan finish() const;
};

namespace detail {

/// Columns per tile of a strided section.  Each column of a tile is a
/// stream of its own, so the tile is kept well under the L1 ways a
/// power-of-two element step maps those streams onto.
inline constexpr std::size_t kTileColumns = 8;

/// The one section walker.  For every piece of peer `peer`'s runs of
/// `side` it calls seg(s, step, b, n): n elements at storage byte address
/// s, `step` elements apart, pair with n consecutive elements at buffer
/// byte address b.  `buf` advances through the runs' elements in
/// row-major order; storage is addressed by the runs' offsets.
template <typename S, typename B, typename Seg>
void walk_runs(const RunSide& side, int peer, S* storage, B* buf,
               std::size_t elem, Seg&& seg) {
  for (const Run& r : side.peer(peer)) {
    const std::size_t row_bytes = r.length * elem;
    if (r.listed()) {
      const std::size_t* at = side.index.data() + r.offset;
      for (std::size_t k = 0; k < r.length; ++k, buf += elem) {
        seg(storage + at[k] * elem, std::size_t{1}, buf, std::size_t{1});
      }
      continue;
    }
    if (r.step == 1) {
      for (std::size_t i = 0; i < r.rows; ++i, buf += row_bytes) {
        seg(storage + (r.offset + i * r.row_stride) * elem, std::size_t{1},
            buf, r.length);
      }
      continue;
    }
    for (std::size_t c0 = 0; c0 < r.length; c0 += kTileColumns) {
      const std::size_t n = std::min(kTileColumns, r.length - c0);
      S* s = storage + (r.offset + c0 * r.step) * elem;
      B* b = buf + c0 * elem;
      for (std::size_t i = 0; i < r.rows; ++i) {
        seg(s + i * r.row_stride * elem, r.step, b + i * row_bytes, n);
      }
    }
    buf += r.rows * row_bytes;
  }
}

}  // namespace detail

/// Executor, send half: fills each peer's send buffer of an already
/// prepared lane with that peer's runs of `storage`, in order.
void pack(const RunSide& side, const std::byte* storage, ExchangeLane& lane);

/// Sizes the lane for the plan's counts of `elem_size`-byte elements and
/// packs its pack side.
void pack(const RunPlan& plan, const std::byte* storage, std::size_t elem_size,
          ExchangeLane& lane);

/// Executor, receive half: copies `payload` into `storage` along peer
/// `peer`'s runs of `side`.
void unpack(const RunSide& side, int peer, std::span<const std::byte> payload,
            std::byte* storage, std::size_t elem_size);

/// unpack along one peer's receive runs of a plan.
inline void unpack(const RunPlan& plan, int peer,
                   std::span<const std::byte> payload, std::byte* storage,
                   std::size_t elem_size) {
  assert(payload.size() ==
         plan.unpack.counts[static_cast<std::size_t>(peer)] * elem_size);
  unpack(plan.unpack, peer, payload, storage, elem_size);
}

/// Executor, accumulating receive half: storage[x] += payload element,
/// along peer `peer`'s runs of `side`.  Elements of one section are
/// distinct, and runs are applied in order, so each storage element sees
/// its contributions in payload order.
template <typename T>
void accumulate(const RunSide& side, int peer,
                std::span<const std::byte> payload, T* storage) {
  detail::walk_runs(
      side, peer, reinterpret_cast<std::byte*>(storage), payload.data(),
      sizeof(T),
      [](std::byte* s, std::size_t step, const std::byte* b, std::size_t n) {
        T* dst = reinterpret_cast<T*>(s);
        for (std::size_t k = 0; k < n; ++k) {
          T v;
          std::memcpy(&v, b + k * sizeof(T), sizeof(T));
          dst[k * step] += v;
        }
      });
}

/// Builds a side of the run shape of `like` over the element offsets
/// offset(0), offset(1), ... in `like`'s element order: a section of
/// `like` whose offsets fold exactly into one section of the same rows and
/// length keeps that shape, any other run becomes a listed run of the
/// same length.  zip_runs pairs the result with `like`.
template <typename F>
RunSide build_like(const RunSide& like, F&& offset) {
  RunSide out{{}, like.start, like.counts, {}};
  out.runs.reserve(like.runs.size());
  std::size_t e = 0;
  for (const Run& r : like.runs) {
    bool ok = !r.listed();
    Run sec;
    for (std::size_t i = 0; ok && i < r.rows; ++i) {
      const std::size_t e_row = e + i * r.length;
      Run row{offset(e_row), 1};
      for (std::size_t c = 1; ok && c < r.length; ++c) {
        ok = detail::extend_row(row, Run{offset(e_row + c), 1});
      }
      if (i == 0) {
        sec = row;
      } else {
        ok = ok && detail::append_row(sec, row);
      }
    }
    if (ok) {
      out.runs.push_back(sec);
    } else {
      out.runs.push_back(Run{out.index.size(), r.elements(), 0, 1, 0});
      for (std::size_t k = 0; k < r.elements(); ++k) {
        out.index.push_back(offset(e + k));
      }
    }
    e += r.elements();
  }
  out.index.shrink_to_fit();
  return out;
}

/// Pairs the elements of `sa` with those of `sb`, a side build_like made
/// of `sa`'s shape (or the reverse), with no buffer between them:
/// f(a[x], b[y]) for the i-th element offset x of `sa` and the i-th
/// offset y of `sb`, for every i.  Run k of each side holds the same
/// elements; when both are sections they have one rows x length.  Pairs
/// with a listed run, whose offsets may repeat, go in element order.
template <typename A, typename B, typename F>
void zip_runs(const RunSide& sa, A* a, const RunSide& sb, B* b, F&& f) {
  assert(sa.runs.size() == sb.runs.size());
  const auto at = [](const RunSide& side, const Run& r, std::size_t i,
                     std::size_t c, std::size_t length) {
    return r.listed() ? side.index[r.offset + i * length + c]
                      : r.offset + i * r.row_stride + c * r.step;
  };
  for (std::size_t k = 0; k < sa.runs.size(); ++k) {
    const Run& x = sa.runs[k];
    const Run& y = sb.runs[k];
    const Run& shape = x.listed() ? y : x;
    assert(x.elements() == y.elements());
    assert(x.listed() || y.listed() ||
           (x.rows == y.rows && x.length == y.length));
    if (!x.listed() && !y.listed()) {
      // Two sections: neither repeats an offset, so the elements may go
      // in column tiles, as in walk_runs.
      for (std::size_t c0 = 0; c0 < x.length; c0 += detail::kTileColumns) {
        const std::size_t n = std::min(detail::kTileColumns, x.length - c0);
        for (std::size_t i = 0; i < x.rows; ++i) {
          A* ra = a + x.offset + i * x.row_stride + c0 * x.step;
          B* rb = b + y.offset + i * y.row_stride + c0 * y.step;
          for (std::size_t c = 0; c < n; ++c) f(ra[c * x.step], rb[c * y.step]);
        }
      }
      continue;
    }
    for (std::size_t i = 0; i < shape.rows; ++i) {
      for (std::size_t c = 0; c < shape.length; ++c) {
        f(a[at(sa, x, i, c, shape.length)], b[at(sb, y, i, c, shape.length)]);
      }
    }
  }
}

}  // namespace vf::msg
