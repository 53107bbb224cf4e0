// perfbench: runs one benchmark workload and prints its result as one JSON
// line on stdout. run.py builds this binary and is the command to use:
//
//   perfbench --workload iscas_flow|rent_multilevel|serve_eco --seed N
//             --seconds S --trace 0|1 --serve PATH/htp_serve --work-dir DIR
//   perfbench --self-test --serve PATH/htp_serve --work-dir DIR
//
// Progress and failure messages go to stderr.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve PATH --work-dir DIR\n"
               "       perfbench --self-test --serve PATH --work-dir DIR\n",
               why);
  std::exit(2);
}

std::string ResultLine(const perfbench::RunResult& r) {
  htp::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(r.correct && r.failed == 0 && r.attempted > 0);
  w.Key("attempted");
  w.Number(static_cast<std::uint64_t>(r.attempted));
  w.Key("failed");
  w.Number(static_cast<std::uint64_t>(r.failed));
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, metric] : r.metrics) {
    w.Key(name);
    w.BeginObject();
    w.Key("value");
    w.Number(std::isfinite(metric.value) ? metric.value : 0.0);
    w.Key("unit");
    w.String(metric.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") o.workload = value();
      else if (arg == "--seed") o.seed = std::stoull(value());
      else if (arg == "--seconds") o.seconds = std::stod(value());
      else if (arg == "--trace") o.trace = value() != "0";
      else if (arg == "--serve") o.serve_binary = value();
      else if (arg == "--work-dir") o.work_dir = value();
      else if (arg == "--self-test") self_test = true;
      else Usage(("unknown argument " + arg).c_str());
    } catch (const std::logic_error&) {
      Usage(("bad value for " + arg).c_str());
    }
  }
  try {
    if (self_test) return perfbench::RunSelfTest(o) == 0 ? 0 : 1;
    if (o.seconds <= 0) Usage("--seconds must be positive");
    perfbench::RunResult result;
    if (o.workload == "iscas_flow") result = perfbench::RunIscasFlow(o);
    else if (o.workload == "rent_multilevel")
      result = perfbench::RunRentMultilevel(o);
    else if (o.workload == "serve_eco") result = perfbench::RunServeEco(o);
    else Usage("unknown workload");
    for (const std::string& e : result.errors)
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    std::printf("%s\n", ResultLine(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  }
}
