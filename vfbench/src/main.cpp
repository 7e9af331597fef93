// vfbench: runs one benchmark workload for a fixed time and prints one
// JSON result line (see vfbench/README.md).
//
//   vfbench --workload <smooth9|adi|adi_gather|amr_churn> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// alternates untraced and traced episodes, reports the per-layer metrics
// from the traced ones (plus ceilings, host noise and tracing overhead)
// and, with --trace-out, writes the last traced episode as Chrome
// trace-event JSON.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "vf/msg/spmd.hpp"
#include "workloads.hpp"

#ifndef VFBENCH_BUILD_TYPE
#define VFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vfbench;  // NOLINT(google-build-using-namespace)

// ---- small statistics -------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// ---- host facts -------------------------------------------------------

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

/// (steal, total) jiffies of the aggregate "cpu" line of /proc/stat.
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string tag;
  f >> tag;
  double v[8] = {};
  for (double& x : v) f >> x;
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

struct HostSample {
  std::int64_t t_ns;
  std::pair<double, double> jiffies;
  long nivcsw;

  static HostSample now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {now_ns(), cpu_jiffies(), ru.ru_nivcsw};
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- ceilings ---------------------------------------------------------

/// Single-thread memcpy bandwidth over `bytes`, median of timed batches.
double memcpy_gbps(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 4096);
  std::vector<char> a(bytes, 1), b(bytes, 2);
  const auto reps =
      static_cast<int>(std::max<std::size_t>(1, (64u << 20) / bytes));
  std::vector<double> gbps;
  for (int s = 0; s < 15; ++s) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) {
      std::memcpy(r % 2 ? a.data() : b.data(), r % 2 ? b.data() : a.data(),
                  bytes);
      asm volatile("" : : "r"(a.data()), "r"(b.data()) : "memory");
    }
    const std::int64_t t1 = now_ns();
    gbps.push_back(static_cast<double>(bytes) * reps /
                   static_cast<double>(t1 - t0));
  }
  return median(gbps);
}

struct Floors {
  double barrier_us = 0.0;   ///< empty barrier, per call
  double exchange_us = 0.0;  ///< counted exchange of one double per peer
};

/// Sync floors on a fresh kRanks machine, timed on rank 0 as the median
/// of batch means.
Floors sync_floors() {
  constexpr int kBatches = 15;
  constexpr int kPerBatch = 200;
  std::vector<double> bar, exch;
  vf::msg::Machine m(kRanks);
  vf::msg::run_spmd(m, [&](vf::msg::Context& ctx) {
    const auto np = static_cast<std::size_t>(ctx.nprocs());
    std::vector<std::uint64_t> expected(np, 1);
    expected[static_cast<std::size_t>(ctx.rank())] = 0;
    for (int b = 0; b < kBatches; ++b) {
      ctx.barrier();
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kPerBatch; ++i) ctx.barrier();
      const std::int64_t t1 = now_ns();
      for (int i = 0; i < kPerBatch; ++i) {
        std::vector<std::vector<double>> out(np, std::vector<double>{1.0});
        out[static_cast<std::size_t>(ctx.rank())].clear();
        (void)ctx.alltoallv_known(std::move(out), expected);
      }
      ctx.barrier();
      const std::int64_t t2 = now_ns();
      if (ctx.rank() == 0) {
        bar.push_back(static_cast<double>(t1 - t0) * 1e-3 / kPerBatch);
        exch.push_back(static_cast<double>(t2 - t1) * 1e-3 / kPerBatch);
      }
    }
  });
  return {median(bar), median(exch)};
}

// ---- measurement ------------------------------------------------------

/// Per-step and per-call samples gathered from traced episodes.
struct LayerSamples {
  std::vector<double> rank0_step_ms;
  std::vector<double> rank0_coverage;  // layer self times / step, per step
  std::vector<double> kernel_ms;  // max over ranks of apps self, per step
  std::vector<double> wait_ms;    // max over ranks of the barrier wait
  std::vector<double> comm_ms;    // max over ranks of data-motion calls
  std::vector<double> redist_gbps;
  std::map<std::string, std::vector<double>> call_ms;  // per span name
  std::vector<double> schedule_build_ms;  // max over ranks, per episode
  double distribute_calls = 0.0;
  std::uint64_t halo_bytes = 0, halo_msgs = 0, parti_bytes = 0;
  std::uint64_t steps = 0;        // loop steps of traced episodes
  std::uint64_t timed_steps = 0;  // steps after the first
  std::uint64_t episodes = 0;
  Counters counters;
  Traffic traffic;  // machine-wide traffic of the timed steps
  std::vector<Traffic> rank_traffic = std::vector<Traffic>(kRanks);
};

bool is_comm(const Span& s) {
  const std::string_view n(s.name);
  return n == "rt.distribute" || n == "halo.exchange" ||
         n == "halo.set_overlap" || n == "parti.gather" ||
         n == "parti.scatter";
}

void add_traced(LayerSamples& L, const Episode& ep, int steps) {
  const auto K = static_cast<std::size_t>(steps);
  std::vector<double> kernel(K, 0.0), wait(K, 0.0), comm(K, 0.0),
      dist_t(K, 0.0), dist_b(K, 0.0);
  double build = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    const RankLog& log = ep.ranks[static_cast<std::size_t>(r)];
    const std::vector<std::int64_t> self = self_ns(log.spans);
    std::vector<double> rk(K, 0.0), rw(K, 0.0), rc(K, 0.0), rd(K, 0.0),
        covered(K, 0.0), step_ms(K, 0.0);
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      const std::string_view layer = layer_of(s);
      const std::string name(s.name);
      if (name == "parti.schedule_build") {
        build = std::max(build, ms(s.dur_ns()));
      }
      if (s.step < 1) continue;  // set-up and the cold first step
      const auto k = static_cast<std::size_t>(s.step);
      const double self_ms = ms(self[i]);
      if (name == "step") {
        step_ms[k] = ms(s.dur_ns());
        continue;
      }
      covered[k] += self_ms;
      L.call_ms[name].push_back(ms(s.dur_ns()));
      if (layer == "apps") rk[k] += self_ms;
      if (name == "msg.barrier") rw[k] += self_ms;
      if (is_comm(s)) rc[k] += ms(s.dur_ns());
      if (name == "rt.distribute") {
        rd[k] += ms(s.dur_ns());
        dist_b[k] += static_cast<double>(s.data_bytes);
        L.distribute_calls += 1.0;
      }
      if (layer == "halo") {
        L.halo_bytes += s.data_bytes;
        L.halo_msgs += s.data_msgs;
      }
      if (layer == "parti") L.parti_bytes += s.data_bytes;
    }
    for (std::size_t k = 1; k < K; ++k) {
      kernel[k] = std::max(kernel[k], rk[k]);
      wait[k] = std::max(wait[k], rw[k]);
      comm[k] = std::max(comm[k], rc[k]);
      dist_t[k] = std::max(dist_t[k], rd[k]);
    }
    if (r == 0) {
      for (std::size_t k = 1; k < K; ++k) {
        L.rank0_step_ms.push_back(step_ms[k]);
        L.rank0_coverage.push_back(covered[k] / step_ms[k]);
      }
    }
    L.counters += log.counters;
    L.traffic += log.warm;
    L.rank_traffic[static_cast<std::size_t>(r)] += log.warm;
  }
  for (std::size_t k = 1; k < K; ++k) {
    L.kernel_ms.push_back(kernel[k]);
    L.wait_ms.push_back(wait[k]);
    L.comm_ms.push_back(comm[k]);
    if (dist_t[k] > 0.0) L.redist_gbps.push_back(dist_b[k] / (dist_t[k] * 1e6));
  }
  if (build > 0.0) L.schedule_build_ms.push_back(build);
  L.steps += K;
  L.timed_steps += K - 1;
  L.episodes += 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  bool have_w = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_w = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = v == "1";
      } else if (k == "--trace-out") {
        a.trace_out = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_w && argc % 2 == 1 && a.seconds > 0.0;
}

class JsonMetrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    std::ostringstream o;
    o.precision(17);
    o << '"' << name << "\": {\"value\": " << value << ", \"unit\": \"" << unit
      << "\"}";
    items_.push_back(o.str());
  }
  [[nodiscard]] std::string str() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      s += (i ? ", " : "") + items_[i];
    }
    return s + "}";
  }

 private:
  std::vector<std::string> items_;
};


/// The per-layer metrics of the traced episodes (see README.md), plus the
/// ceilings and the cost model fitted to them.
void add_layer_metrics(JsonMetrics& out, const LayerSamples& L,
                       const Workload& w, const Floors& floors) {
  const Counters& c = L.counters;
  const double steps = static_cast<double>(L.steps);
  const double warm = static_cast<double>(L.timed_steps);
  const double episodes = static_cast<double>(L.episodes);
  const auto per = [](std::uint64_t x, double n) {
    return ratio(static_cast<double>(x), n);
  };
  const auto hit_rate = [](std::uint64_t hits, std::uint64_t misses) {
    return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  };
  const auto call_ms = [&](const char* name) {
    const auto it = L.call_ms.find(name);
    return it == L.call_ms.end() ? 0.0 : median(it->second);
  };

  const double kernel_ms = median(L.kernel_ms);
  out.add("apps.kernel_ms", kernel_ms, "ms");
  out.add("apps.kernel_ns_per_point",
          kernel_ms * 1e6 / (static_cast<double>(w.n * w.n) / kRanks),
          "ns/point");
  out.add("apps.kernel_bytes", kernel_bytes_per_step(w), "B/step");

  out.add("rt.distribute_ms", call_ms("rt.distribute"), "ms");
  out.add("rt.distribute_calls", L.distribute_calls / (warm * kRanks),
          "calls/step");
  out.add("rt.redist_plan_hit_rate", hit_rate(c.redist_hits, c.redist_misses),
          "ratio");
  out.add("rt.redist_plan_evictions", per(c.redist_evictions, episodes),
          "count/episode");
  out.add("rt.redist_GBps", median(L.redist_gbps), "GB/s");
  out.add("rt.sweep_ms", call_ms("rt.sweep"), "ms");

  out.add("halo.exchange_us", 1e3 * call_ms("halo.exchange"), "us");
  out.add("halo.set_overlap_us", 1e3 * call_ms("halo.set_overlap"), "us");
  out.add("halo.plan_hit_rate", hit_rate(c.halo_hits, c.halo_misses),
          "ratio");
  out.add("halo.bytes_per_step", per(L.halo_bytes, warm), "B/step");
  out.add("halo.msgs_per_step", per(L.halo_msgs, warm), "msgs/step");
  out.add("halo.plan_evictions", per(c.halo_evictions, episodes),
          "count/episode");
  out.add("halo.resident_bytes", per(c.halo_resident, episodes), "B");

  out.add("dist.registry_hit_rate", hit_rate(c.reg_hits, c.reg_misses),
          "ratio");
  out.add("dist.interned", per(c.reg_misses, steps), "count/step");
  out.add("dist.swept", per(c.reg_swept, steps), "count/step");
  out.add("dist.resident_bytes", per(c.reg_resident, episodes), "B");

  out.add("parti.schedule_build_ms", median(L.schedule_build_ms), "ms");
  out.add("parti.gather_us", 1e3 * call_ms("parti.gather"), "us");
  out.add("parti.scatter_us", 1e3 * call_ms("parti.scatter"), "us");
  out.add("parti.bytes_per_step", per(L.parti_bytes, warm), "B/step");
  out.add("parti.binding_hit_rate", hit_rate(c.bind_hits, c.bind_misses),
          "ratio");

  // Cost model fitted to this host: alpha from the counted-exchange floor
  // (one message to each of P-1 peers), beta from the memcpy rate.
  const double bytes_per_step = per(L.traffic.data_bytes, warm);
  const double gbps = memcpy_gbps(static_cast<std::size_t>(bytes_per_step));
  const vf::msg::CostModel cm{floors.exchange_us / (kRanks - 1), 1e-3 / gbps};
  double modeled = 0.0;
  for (const Traffic& t : L.rank_traffic) {
    modeled = std::max(modeled, t.as_stats().modeled_us(cm) / warm);
  }
  out.add("msg.wait_ms", median(L.wait_ms), "ms");
  out.add("msg.data_bytes_per_step", bytes_per_step, "B/step");
  out.add("msg.data_msgs_per_step", per(L.traffic.data_msgs, warm),
          "msgs/step");
  out.add("msg.ctl_msgs_per_step", per(L.traffic.ctl_msgs, warm), "msgs/step");
  out.add("msg.modeled_us_per_step", modeled, "us");
  out.add("msg.model_ratio", ratio(1e3 * median(L.comm_ms), modeled),
          "ratio");
  out.add("roof.memcpy_GBps", gbps, "GB/s");
  out.add("msg.barrier_floor_us", floors.barrier_us, "us");
  out.add("msg.exchange_floor_us", floors.exchange_us, "us");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: vfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  const auto wl = find_workload(args.workload, args.seed);
  if (!wl) {
    std::cerr << "vfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload w = *wl;

  // Guard-rails: timings from an unoptimized build, or from more rank
  // threads than CPUs, measure something else.
  const int cpus = usable_cpus();
  bool ndebug = false;
#ifdef NDEBUG
  ndebug = true;
#endif
  if (std::string(VFBENCH_BUILD_TYPE) != "Release" || !ndebug) {
    std::cerr << "vfbench: refusing a non-Release build ("
              << VFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }
  if (kRanks > cpus) {
    std::cerr << "vfbench: refusing P=" << kRanks << " rank threads on "
              << cpus << " CPUs\n";
    return 3;
  }
  std::cout << "# vfbench workload=" << w.name << " seed=" << w.seed
            << " n=" << w.n << " steps/episode=" << w.steps << " P=" << kRanks
            << " nproc=" << cpus << " build=" << VFBENCH_BUILD_TYPE
            << " transport="
            << vf::msg::to_string(vf::msg::default_transport_kind())
            << " cpu=\"" << cpu_model() << "\"\n";

  const std::vector<double> ref = reference(w);
  // Set-up probes: one-step episodes run between the full ones, so the
  // set-up median rests on many samples taken under the same host load.
  Workload probe = w;
  probe.steps = 1;
  const std::vector<double> probe_ref = reference(probe);
  constexpr int kSetupProbes = 4;

  // Ceilings are measured up front so the episode loop owns the rest of
  // the time budget.
  Floors floors;
  if (args.trace) floors = sync_floors();

  const std::int64_t t_start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  constexpr int kMinEpisodes = 6;
  const HostSample h0 = HostSample::now();

  Tally tally;
  std::vector<double> setup_cpu_s, setup_wall_s, episode_rate,
      episode_cpu_ms, step_ms;
  LayerSamples L;
  std::vector<std::vector<Span>> last_trace;
  std::int64_t last_trace_origin = 0;
  for (int e = 0; e < kMinEpisodes || now_ns() - t_start < budget_ns; ++e) {
    const bool traced = args.trace && e % 2 == 1;
    std::optional<Episode> ep = checked_episode(w, traced, ref, tally);
    if (!ep) continue;
    if (traced) {
      add_traced(L, *ep, w.steps);
      last_trace.clear();
      for (RankLog& r : ep->ranks) last_trace.push_back(std::move(r.spans));
      last_trace_origin = ep->start_ns;
    } else {
      const std::vector<std::int64_t>& rel = ep->ranks[0].release_ns;
      for (std::size_t k = 2; k < rel.size(); ++k) {
        step_ms.push_back(ms(rel[k] - rel[k - 1]));
      }
      setup_cpu_s.push_back(ep->setup_cpu_s());
      setup_wall_s.push_back(ep->setup_wall_s());
      for (int p = 0; p < kSetupProbes; ++p) {
        if (auto pe = checked_episode(probe, false, probe_ref, tally)) {
          setup_cpu_s.push_back(pe->setup_cpu_s());
          setup_wall_s.push_back(pe->setup_wall_s());
        }
      }
      const auto warm_steps = static_cast<double>(rel.size() - 2);
      episode_rate.push_back(warm_steps /
                             (static_cast<double>(rel.back() - rel[1]) * 1e-9));
      std::int64_t cpu_ns = 0;
      for (const RankLog& r : ep->ranks) cpu_ns += r.warm_cpu_ns;
      episode_cpu_ms.push_back(ms(cpu_ns) / warm_steps);
    }
  }
  const HostSample h1 = HostSample::now();
  const double steal_frac = ratio(h1.jiffies.first - h0.jiffies.first,
                                  h1.jiffies.second - h0.jiffies.second);
  const double nivcsw_per_s =
      ratio(static_cast<double>(h1.nivcsw - h0.nivcsw),
            static_cast<double>(h1.t_ns - h0.t_ns) * 1e-9);

  std::cout << "# step samples=" << step_ms.size()
            << " step_ms_p50=" << median(step_ms)
            << " step_ms_p90=" << quantile(step_ms, 0.9)
            << " steps_per_s=" << median(episode_rate)
            << " setup samples=" << setup_cpu_s.size()
            << " setup_wall_s=" << median(setup_wall_s)
            << " host.steal_frac=" << steal_frac
            << " host.nivcsw_per_s=" << nivcsw_per_s << "\n";

  JsonMetrics out;
  if (!args.trace) {
    out.add("step_ms_p10", quantile(step_ms, 0.1), "ms");
    out.add("cpu_ms_per_step", median(episode_cpu_ms), "ms");
    out.add("setup_s", median(setup_cpu_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    add_layer_metrics(out, L, w, floors);
    out.add("host.steal_frac", steal_frac, "ratio");
    out.add("host.nivcsw_per_s", nivcsw_per_s, "1/s");
    out.add("step_ms_p50", median(step_ms), "ms");
    out.add("step_ms_p90", quantile(step_ms, 0.9), "ms");
    out.add("steps_per_s", median(episode_rate), "1/s");
    out.add("setup_wall_s", median(setup_wall_s), "s");
    const double untraced_p50 = median(step_ms);
    out.add("trace.overhead_frac",
            ratio(median(L.rank0_step_ms) - untraced_p50, untraced_p50),
            "ratio");
    out.add("trace.accounted_frac", median(L.rank0_coverage), "ratio");

    if (!args.trace_out.empty() && !last_trace.empty()) {
      write_chrome_trace(args.trace_out, last_trace, last_trace_origin);
      std::cout << "# trace written to " << args.trace_out << "\n";
    }
  }
  std::cout << "{\"correct\": "
            << (tally.failed == 0 && tally.attempted > 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << out.str() << "}" << std::endl;
  return 0;
}
