// Test access to parti::Schedule internals that are not part of its API:
// the run sides the inspector and bind() build, and the executors'
// lockstep notes.
#pragma once

#include <cstdint>

#include "vf/parti/schedule.hpp"

namespace vf::parti {

struct ScheduleTestAccess {
  /// The buffer side (peers) and the own slot's buffer positions.
  static const msg::RunSide& buffer_side(const Schedule& s) noexcept {
    return s.buffer_;
  }
  static const msg::RunSide& own_buffer_side(const Schedule& s) noexcept {
    return s.own_;
  }
  /// The storage sides bound to `a` (binding it).
  static const msg::RunSide& storage_side(const Schedule& s,
                                          const rt::DistArrayBase& a) {
    return s.bind(a).storage;
  }
  static const msg::RunSide& own_storage_side(const Schedule& s,
                                              const rt::DistArrayBase& a) {
    return s.bind(a).own;
  }
  static std::uint64_t gather_note(const Schedule& s) noexcept {
    return s.lockstep_note(Schedule::Executor::Gather);
  }
  static std::uint64_t scatter_note(const Schedule& s) noexcept {
    return s.lockstep_note(Schedule::Executor::Scatter);
  }
};

}  // namespace vf::parti
