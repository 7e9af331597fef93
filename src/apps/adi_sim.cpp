#include "vf/apps/adi_sim.hpp"

#include <cmath>
#include <vector>

#include "vf/apps/kernels.hpp"
#include "vf/parti/schedule.hpp"
#include "vf/rt/dist_array.hpp"

namespace vf::apps {

namespace {

using dist::Index;
using dist::IndexDomain;
using dist::IndexVec;

/// Finishes a strategy run: the checksum reduction plus the machine-wide
/// halo-plan counters every AdiResult reports.
AdiResult finish(msg::Context& ctx, rt::Env& env, rt::DistArray<double>& v) {
  const auto& cache = env.halo_plans().stats();
  return AdiResult{
      v.reduce(msg::ReduceOp::Sum),
      static_cast<std::uint64_t>(ctx.allreduce(
          static_cast<std::int64_t>(cache.hits), msg::ReduceOp::Sum)),
      static_cast<std::uint64_t>(ctx.allreduce(
          static_cast<std::int64_t>(cache.misses), msg::ReduceOp::Sum))};
}

/// The neighbour-coupled RHS (rhs_halo): base term plus a fraction of
/// the previous iterate's dimension-1 neighbours.  Computed into a
/// storage-shaped scratch first and written back in a second sweep, so
/// neither the in-place write order nor the interior/boundary traversal
/// split can change the values read.
void fill_rhs_coupled(rt::DistArray<double>& v, int iter,
                      const AdiConfig& cfg) {
  const Index ny = cfg.ny;
  std::vector<double> rhs(v.local_span().size());
  double* base = v.local_span().data();
  const auto compute = [&](const IndexVec& i, double& x) {
    const double b = std::sin(0.01 * static_cast<double>(i[0] * (iter + 1))) +
                     0.001 * static_cast<double>(i[1]);
    const double c = v.at(i);
    const double lo = i[1] > 1 ? v.halo({i[0], i[1] - 1}) : c;
    const double hi = i[1] < ny ? v.halo({i[0], i[1] + 1}) : c;
    rhs[static_cast<std::size_t>(&x - base)] = b + 0.125 * (lo + hi);
  };
  if (cfg.split_phase) {
    // Interior cells' dim-1 neighbours are owned (margin 1 from the
    // ghosted faces), so they compute while the boundary planes travel.
    v.begin_exchange_overlap();
    const auto m = v.split_margins();
    v.for_owned_interior(m, compute);
    v.end_exchange_overlap();
    v.for_owned_boundary(m, compute);
  } else {
    v.exchange_overlap();
    v.for_owned(compute);
  }
  v.for_owned([&](const IndexVec&, double& x) {
    x = rhs[static_cast<std::size_t>(&x - base)];
  });
}

void fill_rhs(rt::DistArray<double>& v, int iter, const AdiConfig& cfg) {
  if (cfg.rhs_halo) {
    fill_rhs_coupled(v, iter, cfg);
    return;
  }
  v.for_owned([&](const IndexVec& i, double& x) {
    x = std::sin(0.01 * static_cast<double>(i[0] * (iter + 1))) +
        0.001 * static_cast<double>(i[1]);
  });
}

/// The (0,1)/(0,1) overlap the coupled RHS needs, applied to a V spec.
template <typename Spec>
Spec with_rhs_overlap(Spec s, const AdiConfig& cfg) {
  if (cfg.rhs_halo) {
    s.overlap_lo = {0, 1};
    s.overlap_hi = {0, 1};
  }
  return s;
}

AdiResult run_dynamic(msg::Context& ctx, const AdiConfig& cfg) {
  rt::Env env(ctx);
  rt::DistArray<double> v(
      env, with_rhs_overlap(
               rt::DistArray<double>::Spec{
                   .name = "V",
                   .domain = IndexDomain({dist::Range{1, cfg.nx},
                                          dist::Range{1, cfg.ny}}),
                   .dynamic = true,
                   .initial = {{dist::col(), dist::block()}},
                   .range = {{query::p_col(), query::p_block()},
                             {query::p_block(), query::p_col()}}},
               cfg));
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    fill_rhs(v, iter, cfg);
    solve_local_lines(v, /*d=*/0, ctx.rank());  // x-lines local
    v.distribute(dist::DistributionType{dist::block(), dist::col()});
    solve_local_lines(v, /*d=*/1, ctx.rank());  // y-lines local
    v.distribute(dist::DistributionType{dist::col(), dist::block()});
  }
  return finish(ctx, env, v);
}

AdiResult run_static_gather(msg::Context& ctx, const AdiConfig& cfg) {
  rt::Env env(ctx);
  rt::DistArray<double> v(
      env, with_rhs_overlap(
               rt::DistArray<double>::Spec{
                   .name = "V",
                   .domain = IndexDomain({dist::Range{1, cfg.nx},
                                          dist::Range{1, cfg.ny}}),
                   .initial = {{dist::col(), dist::block()}}},
               cfg));
  // The y-sweep's lines (rows) are distributed: assign rows to processors
  // round-robin and build a reusable gather/scatter schedule for the rows
  // this rank is responsible for.
  std::vector<IndexVec> my_row_points;
  for (Index i = 1 + ctx.rank(); i <= cfg.nx; i += ctx.nprocs()) {
    for (Index j = 1; j <= cfg.ny; ++j) my_row_points.push_back({i, j});
  }
  parti::Schedule rows(ctx, v.dist_handle(), my_row_points);
  std::vector<double> buf(my_row_points.size());

  for (int iter = 0; iter < cfg.iterations; ++iter) {
    fill_rhs(v, iter, cfg);
    solve_local_lines(v, /*d=*/0, ctx.rank());  // x-lines local
    // y-sweep: gather my rows, solve, scatter back -- per-iteration
    // communication the static layout cannot avoid.
    rows.gather(ctx, v, buf);
    for (std::size_t r = 0; r * cfg.ny < buf.size(); ++r) {
      tridiag(std::span<double>(buf.data() + r * cfg.ny,
                                static_cast<std::size_t>(cfg.ny)));
    }
    rows.scatter(ctx, buf, v);
    ctx.barrier();
  }
  return finish(ctx, env, v);
}

AdiResult run_two_copies(msg::Context& ctx, const AdiConfig& cfg) {
  rt::Env env(ctx);
  const IndexDomain dom({dist::Range{1, cfg.nx}, dist::Range{1, cfg.ny}});
  rt::DistArray<double> v(
      env, with_rhs_overlap(
               rt::DistArray<double>::Spec{
                   .name = "V",
                   .domain = dom,
                   .initial = {{dist::col(), dist::block()}}},
               cfg));
  rt::DistArray<double> vt(env, {.name = "VT",
                                 .domain = dom,
                                 .initial = {{dist::block(), dist::col()}}});
  // Array-assignment schedules in both directions (each element of the
  // destination reads its copy from the source's owner).
  std::vector<IndexVec> vt_owned;
  vt.distribution().for_owned(
      ctx.rank(), [&](const IndexVec& i) { vt_owned.push_back(i); });
  parti::Schedule to_vt(ctx, v.dist_handle(), vt_owned);
  std::vector<IndexVec> v_owned;
  v.distribution().for_owned(
      ctx.rank(), [&](const IndexVec& i) { v_owned.push_back(i); });
  parti::Schedule to_v(ctx, vt.dist_handle(), v_owned);
  std::vector<double> bufa(vt_owned.size());
  std::vector<double> bufb(v_owned.size());

  for (int iter = 0; iter < cfg.iterations; ++iter) {
    fill_rhs(v, iter, cfg);
    solve_local_lines(v, /*d=*/0, ctx.rank());
    // VT = V (array assignment across distributions).
    to_vt.gather(ctx, v, bufa);
    for (std::size_t k = 0; k < vt_owned.size(); ++k) {
      vt.at(vt_owned[k]) = bufa[k];
    }
    solve_local_lines(vt, /*d=*/1, ctx.rank());
    // V = VT.
    to_v.gather(ctx, vt, bufb);
    for (std::size_t k = 0; k < v_owned.size(); ++k) {
      v.at(v_owned[k]) = bufb[k];
    }
    ctx.barrier();
  }
  return finish(ctx, env, v);
}

}  // namespace

void solve_local_lines(rt::DistArray<double>& v, int d, int me) {
  const int other = 1 - d;
  const auto lines = v.distribution().owned_in_dim(me, other);
  const dist::Range r = v.distribution().domain().dim(d);
  std::vector<double> line(static_cast<std::size_t>(r.size()));
  for (Index fixed : lines) {
    IndexVec idx{0, 0};
    idx[other] = fixed;
    for (Index k = r.lo; k <= r.hi; ++k) {
      idx[d] = k;
      line[static_cast<std::size_t>(k - r.lo)] = v.at(idx);
    }
    tridiag(line);
    for (Index k = r.lo; k <= r.hi; ++k) {
      idx[d] = k;
      v.at(idx) = line[static_cast<std::size_t>(k - r.lo)];
    }
  }
}

const char* to_string(AdiStrategy s) {
  switch (s) {
    case AdiStrategy::DynamicRedistribution:
      return "dynamic-redistribution";
    case AdiStrategy::StaticGatherLines:
      return "static-gather-lines";
    case AdiStrategy::StaticTwoCopies:
      return "static-two-copies";
  }
  return "?";
}

AdiResult run_adi(msg::Context& ctx, const AdiConfig& cfg, AdiStrategy strat) {
  switch (strat) {
    case AdiStrategy::DynamicRedistribution:
      return run_dynamic(ctx, cfg);
    case AdiStrategy::StaticGatherLines:
      return run_static_gather(ctx, cfg);
    case AdiStrategy::StaticTwoCopies:
      return run_two_copies(ctx, cfg);
  }
  return {};
}

}  // namespace vf::apps
