// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around its calls into each layer (never inside the
// engine), on the single client thread, and written out when the run ends.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  struct Span {
    const char* name = "";
    int64_t start = 0;
    int64_t end = 0;
    int32_t parent = kNoParent;
    uint32_t query = 0;  // 0 = outside any query
  };

  // Opens a span under the innermost open one; closed by the destructor.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int64_t nanos_so_far() const;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  // Spans opened from now on carry `query` (0 leaves any query).
  void SetQuery(uint32_t query) { query_ = query; }
  uint32_t NextQueryId() { return ++last_query_; }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time: each span minus the time its direct children cover.
  std::vector<int64_t> SelfNanos() const;

  // For every root span named `root`: its duration and the summed duration
  // of its direct children, by child name.
  struct RootBreakdown {
    int64_t wall = 0;
    std::map<std::string, int64_t> children;
  };
  std::vector<RootBreakdown> Breakdown(const std::string& root) const;

  // Chrome trace_event JSON ("ph":"X" events, microseconds, query id and
  // self time in args).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint32_t query_ = 0;
  uint32_t last_query_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
