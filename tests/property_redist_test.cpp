// Seeded DISTRIBUTE / overlap-exchange chains (see fuzz_chain.hpp) on the
// mailbox transport: every machine, domain ranks 1 to 4, with the lockstep
// checker armed.  halo_fuzz_test runs the same chains on shared memory.
#include <gtest/gtest.h>

#include "fuzz_chain.hpp"

namespace vf::testing::fuzz {
namespace {

constexpr msg::TransportKind kTransport = msg::TransportKind::Mailbox;

TEST(FuzzChain, P1) { expect_coverage(run_machine(0, kTransport), false); }
TEST(FuzzChain, P3) { expect_coverage(run_machine(1, kTransport), true); }
TEST(FuzzChain, Line4) { expect_coverage(run_machine(2, kTransport), true); }
TEST(FuzzChain, Grid4) { expect_coverage(run_machine(3, kTransport), true); }
TEST(FuzzChain, Grid9) { expect_coverage(run_machine(4, kTransport), true); }

}  // namespace
}  // namespace vf::testing::fuzz
