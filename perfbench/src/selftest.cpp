// Self-test: the self-time arithmetic on hand-built spans, then every
// workload at its smallest size, untraced and traced.
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

namespace {

Span MakeSpan(const char* name, std::uint64_t id, std::uint64_t parent,
              std::int64_t start, std::int64_t end, std::uint32_t lane) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  s.lane = lane;
  return s;
}

struct Case {
  const char* what;
  std::vector<Span> spans;
  std::map<std::string, double> expected_self;
};

int CheckAttribution() {
  const std::vector<Case> cases = {
      {"parallel children are subtracted once (union, not sum)",
       {MakeSpan("request", 1, 0, 0, 10, 0),
        MakeSpan("core.metric", 2, 1, 1, 8, 1),
        MakeSpan("core.metric", 3, 1, 2, 6, 2)},
       {{"request", 3}, {"core.metric", 7}}},
      {"concurrent spans of two layers split the overlap",
       {MakeSpan("request", 1, 0, 0, 10, 0),
        MakeSpan("core.construct", 2, 1, 0, 10, 0),
        MakeSpan("core.metric", 3, 2, 2, 4, 1),
        MakeSpan("graph.csr", 4, 2, 3, 5, 2)},
       {{"core.construct", 7}, {"core.metric", 1.5}, {"graph.csr", 1.5}}},
      {"grandchildren on worker lanes leave the middle layer its rest",
       {MakeSpan("request", 1, 0, 0, 10, 0),
        MakeSpan("multilevel", 2, 1, 0, 9, 0),
        MakeSpan("core.metric", 3, 2, 1, 5, 1),
        MakeSpan("core.metric", 4, 2, 3, 7, 2)},
       {{"request", 1}, {"multilevel", 3}, {"core.metric", 6}}},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const Attribution a = AttributeSelfTime(c.spans);
    double sum = 0.0;
    for (const auto& [name, ns] : a.self_ns) sum += ns;
    bool ok = std::abs(sum - a.wall_ns) < 1e-9;
    for (const auto& [name, want] : c.expected_self) {
      const auto it = a.self_ns.find(name);
      ok = ok && it != a.self_ns.end() && std::abs(it->second - want) < 1e-9;
    }
    for (const auto& [name, ns] : a.self_ns)
      ok = ok && (ns == 0.0 || c.expected_self.contains(name));
    std::fprintf(stderr, "self-test %s: %s\n", ok ? "ok  " : "FAIL", c.what);
    failures += !ok;
  }
  return failures;
}

int CheckWorkload(const Options& base, const std::string& workload,
                  bool trace, RunResult (*run)(const Options&)) {
  Options o = base;
  o.workload = workload;
  o.trace = trace;
  o.small = true;
  o.seed = 7;
  const RunResult r = run(o);
  bool ok = r.correct && r.failed == 0 && r.attempted > 0;
  for (const std::string& e : r.errors)
    std::fprintf(stderr, "  %s\n", e.c_str());
  if (trace) {
    for (const auto& [name, unit] : PerLayerMetrics())
      ok = ok && r.metrics.contains(name);
    ok = ok && r.metrics.at("trace.spans").value > 0;
  } else {
    for (const auto& [name, metric] : r.metrics)
      ok = ok && metric.value > 0 && std::isfinite(metric.value);
    ok = ok && r.metrics.size() == 8;
  }
  std::fprintf(stderr, "self-test %s: %s %s\n", ok ? "ok  " : "FAIL",
               workload.c_str(), trace ? "traced" : "untraced");
  return !ok;
}

}  // namespace

int RunSelfTest(const Options& options) {
  int failures = CheckAttribution();
  for (const bool trace : {false, true}) {
    failures += CheckWorkload(options, "iscas_flow", trace, RunIscasFlow);
    failures += CheckWorkload(options, "rent_multilevel", trace,
                              RunRentMultilevel);
    failures += CheckWorkload(options, "serve_eco", trace, RunServeEco);
  }
  std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
