#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <stdexcept>

namespace perfbench {

std::int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

std::uint32_t ThisLane() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t lane = next.fetch_add(1);
  return lane;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t parent, std::uint64_t request)
    : recorder_(recorder) {
  span_.name = name;
  span_.parent = parent;
  span_.request = request;
  span_.lane = ThisLane();
  {
    std::lock_guard<std::mutex> lock(recorder_.mutex_);
    span_.id = recorder_.next_id_++;
  }
  span_.start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  span_.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(recorder_.mutex_);
  recorder_.spans_.push_back(std::move(span_));
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(spans_);
}

Attribution AttributeSelfTime(const std::vector<Span>& spans) {
  Attribution out;
  std::map<std::uint64_t, const Span*> by_id;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    if (s.parent == 0) {
      if (root) throw std::runtime_error("request has two root spans");
      root = &s;
    }
  }
  if (!root) throw std::runtime_error("request has no root span");
  out.wall_ns = static_cast<double>(root->end_ns - root->start_ns);

  std::vector<int> depth(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::uint64_t p = spans[i].parent; p != 0;) {
      const auto it = by_id.find(p);
      if (it == by_id.end()) throw std::runtime_error("span parent missing");
      ++depth[i];
      p = it->second->parent;
    }
  }

  // Sweep the root interval; clip every span to it.
  struct Edge {
    std::int64_t t;
    bool open;
    std::size_t span;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t a = std::max(spans[i].start_ns, root->start_ns);
    const std::int64_t b = std::min(spans[i].end_ns, root->end_ns);
    if (b <= a) continue;
    edges.push_back({a, true, i});
    edges.push_back({b, false, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    return x.t < y.t;
  });
  std::vector<std::size_t> open;
  for (std::size_t e = 0; e < edges.size();) {
    const std::int64_t t = edges[e].t;
    for (; e < edges.size() && edges[e].t == t; ++e) {
      if (edges[e].open) {
        open.push_back(edges[e].span);
      } else {
        open.erase(std::find(open.begin(), open.end(), edges[e].span));
      }
    }
    if (open.empty() || e == edges.size()) continue;
    const double dt = static_cast<double>(edges[e].t - t);
    int deepest = -1;
    for (const std::size_t i : open) deepest = std::max(deepest, depth[i]);
    std::size_t ties = 0;
    for (const std::size_t i : open) ties += depth[i] == deepest;
    for (const std::size_t i : open)
      if (depth[i] == deepest)
        out.self_ns[spans[i].name] += dt / static_cast<double>(ties);
  }
  return out;
}

std::map<std::uint64_t, std::vector<Span>> ByRequest(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<Span>> out;
  for (const Span& s : spans) out[s.request].push_back(s);
  return out;
}

void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.lane << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
