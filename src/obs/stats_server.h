// Embedded, dependency-free HTTP stats server: the live half of the
// observability stack. Where --metrics/--trace dump at process exit, this
// serves the same registry continuously so an operator (or Prometheus) can
// watch a long scan in flight:
//
//   /metrics  Prometheus text exposition (0.0.4) of every registry metric,
//             plus ring-derived trailing rates (rows/s, bytes/s, cache hit
//             rate over the last 10 s) from the obs/timeseries.h rings.
//   /statusz  human-readable: build info, uptime, watchdog state, and a
//             caller-provided section (catalog + cache occupancy, active
//             queries with per-stage span state).
//   /healthz  200 "ok" while no stage has stalled; 503 once the watchdog
//             has fired (a supervisor's /quitz-style liveness probe).
//
// Plain blocking sockets on a dedicated thread: one accept loop, one
// request per connection, bounded request size. Scrapes read only relaxed
// atomics and per-structure snapshots — never a pipeline lock — so a
// scrape cannot stall a scan. The rings are sampled by a task on the
// process's ticker (pipeline/ticker.h) at the telemetry's time-series
// interval, whether or not anyone scrapes; a scrape only reads them.
#ifndef SCANRAW_OBS_STATS_SERVER_H_
#define SCANRAW_OBS_STATS_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "pipeline/ticker.h"

namespace scanraw {
namespace obs {

class Telemetry;
class Watchdog;

struct StatsServerOptions {
  // TCP port to bind on 127.0.0.1. 0 picks an ephemeral port (see port()).
  int port = 0;
  // Metric source; required.
  Telemetry* telemetry = nullptr;
  // Optional: /healthz turns 503 and /statusz shows stall reports.
  Watchdog* watchdog = nullptr;
  // Extra /statusz section (catalog, cache occupancy, active queries).
  // Called on the server thread; must be self-synchronizing.
  std::function<std::string()> statusz_section;
  // Shown at the top of /statusz.
  std::string build_info = "scanraw";
};

class StatsServer {
 public:
  explicit StatsServer(StatsServerOptions options);
  ~StatsServer();
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  // Binds, listens, starts the accept thread and registers the time-series
  // sampling tick (none when the telemetry's interval is 0). Fails
  // (IoError) when the port is taken or telemetry is missing
  // (InvalidArgument). Start and Stop belong to the owner's thread.
  Status Start() EXCLUDES(mu_);
  void Stop() EXCLUDES(mu_);  // idempotent; the destructor calls it

  // The bound port (resolves port=0 requests); 0 before Start.
  int port() const { return port_.load(std::memory_order_relaxed); }

  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  // Renderers, exposed so tests can validate output without a socket and
  // the CLI can reuse the exposition formatting.
  std::string RenderMetrics() const;
  std::string RenderStatusz() const;
  std::string RenderHealthz(bool* healthy) const;

 private:
  void AcceptLoop();
  void HandleConnection(int client_fd);
  std::string RouteRequest(const std::string& request_line);

  const StatsServerOptions options_;
  const int64_t start_nanos_;

  std::atomic<int> port_{0};
  std::atomic<uint64_t> requests_served_{0};
  Ticker::Handle sample_;  // set between Start and Stop

  mutable Mutex mu_{LockRank::kStatsServer, "StatsServer.mu"};
  std::thread thread_;
  bool running_ GUARDED_BY(mu_) = false;
  int listen_fd_ GUARDED_BY(mu_) = -1;
  int wake_pipe_[2] GUARDED_BY(mu_) = {-1, -1};
};

// Prometheus metric-name sanitizer: dots and any other character outside
// [a-zA-Z0-9_:] become '_'; a leading digit gains a '_' prefix.
std::string PrometheusName(std::string_view name);

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_STATS_SERVER_H_
