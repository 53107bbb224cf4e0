// In-memory spans recorded by the benchmark around its calls into the htp
// layers, and the self-time arithmetic that turns one request's spans into
// per-layer wall time.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
std::int64_t NowNs();

struct Span {
  std::string name;  ///< layer-qualified, e.g. "core.metric"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 for a request's root span
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t lane = 0;  ///< small per-thread id
};

/// Thread-safe span sink. Spans stay in memory until Take().
class SpanRecorder {
 public:
  /// RAII span: opened by the constructor, recorded by the destructor.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t parent,
          std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    SpanRecorder& recorder_;
    Span span_;
  };

  std::vector<Span> Take();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Wall time of one request split by span name. At every instant of the
/// root span the time goes to the deepest spans open at that instant; when
/// several are open at that depth (worker lanes running in parallel) the
/// instant is split evenly between them. Child spans are therefore
/// subtracted from their parent exactly once however many lanes they ran
/// on, and the parts sum to the root span's duration.
struct Attribution {
  std::map<std::string, double> self_ns;
  double wall_ns = 0.0;  ///< the root span's duration
};

/// `spans` are the spans of one request; exactly one has parent 0.
Attribution AttributeSelfTime(const std::vector<Span>& spans);

/// Groups spans by request id.
std::map<std::uint64_t, std::vector<Span>> ByRequest(
    const std::vector<Span>& spans);

/// Writes the spans as a Chrome trace_event JSON file (open it in Perfetto
/// or chrome://tracing); request and parent ids ride in each event's args.
void WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
