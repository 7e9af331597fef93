// ADI iteration in Vienna Fortran -- a transcription of Figure 1.
//
//   REAL U(NX,NY), F(NX,NY) DIST (:, BLOCK)
//   REAL V(NX,NY) DYNAMIC, RANGE((:,BLOCK),(BLOCK,:)), DIST (:, BLOCK)
//
//   CALL RESID(V, U, F, NX, NY)
//   DO J = 1, NY            ! sweep over x-lines: columns are local
//     CALL TRIDIAG(V(:,J), NX)
//   ENDDO
//   DISTRIBUTE V :: (BLOCK, :)
//   DO I = 1, NX            ! sweep over y-lines: rows are local
//     CALL TRIDIAG(V(I,:), NY)
//   ENDDO
//
// "Thus, all the communication is confined to the redistribution
// operation, with only local accesses during the computation."
#include <cstdio>
#include <cmath>

#include "vf/apps/adi_sim.hpp"
#include "vf/msg/spmd.hpp"
#include "vf/rt/dist_array.hpp"

using namespace vf;  // NOLINT(google-build-using-namespace)
using dist::IndexDomain;
using dist::IndexVec;

namespace {

constexpr dist::Index NX = 64;
constexpr dist::Index NY = 64;
constexpr int kIterations = 4;

/// RESID: computes the right-hand side; here a smooth test field, purely
/// local under any distribution.
void resid(rt::DistArray<double>& v, const rt::DistArray<double>& u,
           const rt::DistArray<double>& f) {
  v.for_owned([&](const IndexVec& i, double& x) {
    x = u.at(i) + f.at(i);
  });
}

void program(msg::Context& ctx) {
  rt::Env env(ctx);
  const bool root = ctx.rank() == 0;

  rt::DistArray<double> u(env, {.name = "U",
                                .domain = IndexDomain::of_extents({NX, NY}),
                                .initial = {{dist::col(), dist::block()}}});
  rt::DistArray<double> f(env, {.name = "F",
                                .domain = IndexDomain::of_extents({NX, NY}),
                                .initial = {{dist::col(), dist::block()}}});
  rt::DistArray<double> v(
      env, {.name = "V",
            .domain = IndexDomain::of_extents({NX, NY}),
            .dynamic = true,
            .initial = {{dist::col(), dist::block()}},
            .range = {{query::p_col(), query::p_block()},
                      {query::p_block(), query::p_col()}}});

  u.init([](const IndexVec& i) {
    return std::sin(0.1 * static_cast<double>(i[0])) +
           std::cos(0.1 * static_cast<double>(i[1]));
  });
  f.init([](const IndexVec& i) {
    return 1e-3 * static_cast<double>(i[0] * i[1]);
  });

  for (int iter = 0; iter < kIterations; ++iter) {
    resid(v, u, f);

    // Sweep over x-lines: V is (:, BLOCK), each column local to one rank.
    apps::solve_local_lines(v, /*d=*/0, ctx.rank());

    // DISTRIBUTE V :: (BLOCK, :) -- the only communication of the step.
    v.distribute(dist::DistributionType{dist::block(), dist::col()});

    // Sweep over y-lines: rows are now local.
    apps::solve_local_lines(v, /*d=*/1, ctx.rank());

    // Remap back for the next iteration's x-sweep.
    v.distribute(dist::DistributionType{dist::col(), dist::block()});

    const double norm = v.reduce(msg::ReduceOp::Max);
    if (root) std::printf("iter %d: max(V) = %.6f\n", iter, norm);
  }

  ctx.barrier();
  if (root) {
    const auto s = ctx.machine().total_stats();
    std::printf("\nADI %lldx%lld, %d iterations on %d processors\n",
                static_cast<long long>(NX), static_cast<long long>(NY),
                kIterations, ctx.nprocs());
    std::printf("all communication confined to DISTRIBUTE: %s\n",
                s.to_string().c_str());
    std::printf("modeled communication time: %.1f us\n",
                s.modeled_us(ctx.cost_model()));
  }
}

}  // namespace

int main() {
  msg::Machine machine(4);
  msg::run_spmd(machine, program);
  return 0;
}
