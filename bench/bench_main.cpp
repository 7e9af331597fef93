// Shared benchmark entry point: runs the registered benchmarks with the
// usual console output AND writes a machine-readable JSON report to
// BENCH_<name>.json in the current working directory, where <name> is the
// binary's name without its "bench_" prefix.  The JSON carries ns/op plus
// every per-benchmark counter (data message counts, bytes moved and
// modeled times from CommStats), so results can be diffed across commits.
//
// An explicit --benchmark_out=... on the command line overrides the
// default destination.  The report context records this library's build
// ("vf_build": release when compiled with NDEBUG) and the host's core
// count ("nproc"); "library_build_type" describes the installed Google
// Benchmark library, not this code.
#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

int main(int argc, char** argv) {
  std::string name = argv[0];
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  const std::string out_path = "BENCH_" + name + ".json";

  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }

  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  ::benchmark::Initialize(&args_count, args.data());
#ifdef NDEBUG
  ::benchmark::AddCustomContext("vf_build", "release");
#else
  ::benchmark::AddCustomContext("vf_build", "debug");
#endif
  ::benchmark::AddCustomContext(
      "nproc", std::to_string(std::thread::hardware_concurrency()));
  if (::benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (!has_out) std::cout << "wrote " << out_path << "\n";
  return 0;
}
