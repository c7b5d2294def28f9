#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "obs/log.h"
#include "obs/telemetry.h"
#include "obs/watchdog.h"

namespace scanraw {
namespace obs {

namespace {

// Bound on a single HTTP request; anything longer is malformed.
constexpr size_t kMaxRequestBytes = 8192;
// Per-connection read patience; a scraper that stalls longer is dropped.
constexpr int kClientReadTimeoutMs = 2000;
// Trailing window of the ring-derived rates on /metrics and /statusz.
constexpr int64_t kRateWindowNanos = 10'000'000'000;  // 10 s

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void WriteAll(int fd, const char* data, size_t length) {
  size_t sent = 0;
  while (sent < length) {
    const ssize_t n = ::write(fd, data + sent, length - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // client went away; nothing to clean up but the fd
    }
    sent += static_cast<size_t>(n);
  }
}

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out;
  out.reserve(body.size() + 160);
  out += "HTTP/1.0 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string PrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, "_");
  if (out.empty()) out = "_";
  return out;
}

StatsServer::StatsServer(StatsServerOptions options)
    : options_(std::move(options)),
      start_nanos_(RealClock::Instance()->NowNanos()) {}

StatsServer::~StatsServer() { Stop(); }

Status StatsServer::Start() {
  if (options_.telemetry == nullptr) {
    return Status::InvalidArgument("stats server needs a Telemetry sink");
  }
  {
    MutexLock lock(mu_);
    if (running_) return Status::OK();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IoError(std::string("stats server socket: ") +
                             std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IoError("stats server bind to port " +
                             std::to_string(options_.port) + ": " +
                             std::strerror(err));
    }
    if (::listen(fd, 16) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IoError(std::string("stats server listen: ") +
                             std::strerror(err));
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
        0) {
      const int err = errno;
      ::close(fd);
      return Status::IoError(std::string("stats server getsockname: ") +
                             std::strerror(err));
    }
    if (::pipe(wake_pipe_) != 0) {
      const int err = errno;
      ::close(fd);
      return Status::IoError(std::string("stats server pipe: ") +
                             std::strerror(err));
    }

    listen_fd_ = fd;
    port_.store(ntohs(addr.sin_port), std::memory_order_relaxed);
    running_ = true;
    // scanraw-lint: allow(thread-spawn) the HTTP stats server's accept loop
    thread_ = std::thread([this] { AcceptLoop(); });
  }
  TimeSeries* timeseries = &options_.telemetry->timeseries();
  if (timeseries->interval_nanos() > 0) {
    sample_ = Ticker::Shared().Every(
        std::chrono::nanoseconds(timeseries->interval_nanos()),
        [timeseries] {
          timeseries->SampleNow(RealClock::Instance()->NowNanos());
        });
  }
  LOG_INFO("stats server listening on 127.0.0.1:%d", port());
  return Status::OK();
}

void StatsServer::Stop() {
  sample_.Cancel();
  {
    MutexLock lock(mu_);
    if (!running_) return;
    // One byte through the self-pipe unblocks poll() in the accept loop.
    const char byte = 'q';
    WriteAll(wake_pipe_[1], &byte, 1);
  }
  thread_.join();
  MutexLock lock(mu_);
  ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  listen_fd_ = -1;
  wake_pipe_[0] = wake_pipe_[1] = -1;
  running_ = false;
}

void StatsServer::AcceptLoop() {
  int listen_fd, wake_fd;
  {
    MutexLock lock(mu_);
    listen_fd = listen_fd_;
    wake_fd = wake_pipe_[0];
  }
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd, POLLIN, 0};
    fds[1] = {wake_fd, POLLIN, 0};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // Stop() poked the pipe
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) continue;
    HandleConnection(client);
    ::close(client);
  }
}

void StatsServer::HandleConnection(int client_fd) {
  // Read until the end of the request head, a bound, or a timeout.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n") == std::string::npos) {
    pollfd pfd = {client_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kClientReadTimeoutMs);
    if (ready <= 0) break;
    const ssize_t n = ::read(client_fd, buf, sizeof(buf));
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  requests_served_.fetch_add(1, std::memory_order_relaxed);

  const size_t eol = request.find("\r\n");
  std::string response;
  if (eol == std::string::npos) {
    response = HttpResponse(400, "Bad Request", "text/plain",
                            "malformed request\n");
  } else {
    response = RouteRequest(request.substr(0, eol));
  }
  WriteAll(client_fd, response.data(), response.size());
}

std::string StatsServer::RouteRequest(const std::string& request_line) {
  // "GET <path> HTTP/1.x" — anything else is malformed or unsupported.
  const size_t sp1 = request_line.find(' ');
  if (sp1 == std::string::npos) {
    return HttpResponse(400, "Bad Request", "text/plain",
                        "malformed request line\n");
  }
  const size_t sp2 = request_line.find(' ', sp1 + 1);
  const std::string method = request_line.substr(0, sp1);
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }
  std::string path = sp2 == std::string::npos
                         ? request_line.substr(sp1 + 1)
                         : request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (path == "/metrics") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4",
                        RenderMetrics());
  }
  if (path == "/statusz" || path == "/") {
    return HttpResponse(200, "OK", "text/plain", RenderStatusz());
  }
  if (path == "/healthz") {
    bool healthy = true;
    const std::string body = RenderHealthz(&healthy);
    return healthy ? HttpResponse(200, "OK", "text/plain", body)
                   : HttpResponse(503, "Service Unavailable", "text/plain",
                                  body);
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "unknown path; try /metrics, /statusz, /healthz\n");
}

std::string StatsServer::RenderMetrics() const {
  Telemetry* telemetry = options_.telemetry;
  const MetricsSnapshot snap = telemetry->metrics().Snapshot();
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    // Log-bucketed histograms export as summaries: the native buckets are
    // powers of two, not cumulative le-buckets.
    const std::string prom = PrometheusName(h.name);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} " + FormatDouble(h.p50) + "\n";
    out += prom + "{quantile=\"0.95\"} " + FormatDouble(h.p95) + "\n";
    out += prom + "{quantile=\"0.99\"} " + FormatDouble(h.p99) + "\n";
    out += prom + "_sum " + std::to_string(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }

  // Ring-derived trailing rates (the live half: lifetime totals above,
  // what-happened-lately here).
  const auto rows = telemetry->timeseries().Rates(kRateWindowNanos);
  for (const auto& row : rows) {
    if (row.kind != TimeSeries::Kind::kCounter) continue;
    const std::string prom = PrometheusName(row.name) + "_per_sec";
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " +
           FormatDouble(row.rate_defined ? row.rate_per_sec : 0.0) + "\n";
  }
  double hit_rate = 0.0;
  if (telemetry->timeseries().CacheHitRate(kRateWindowNanos, &hit_rate)) {
    out += "# TYPE scanraw_cache_hit_rate gauge\n";
    out += "scanraw_cache_hit_rate " + FormatDouble(hit_rate) + "\n";
  }

  // Stage liveness from the heartbeat board.
  out += "# TYPE scanraw_stage_active gauge\n";
  for (size_t i = 0; i < kNumHeartbeatStages; ++i) {
    const auto stage = static_cast<HeartbeatStage>(i);
    out += "scanraw_stage_active{stage=\"" +
           std::string(HeartbeatStageName(stage)) + "\"} " +
           std::to_string(telemetry->heartbeats().active(stage)) + "\n";
  }
  out += "# TYPE scanraw_stage_beats_total counter\n";
  for (size_t i = 0; i < kNumHeartbeatStages; ++i) {
    const auto stage = static_cast<HeartbeatStage>(i);
    out += "scanraw_stage_beats_total{stage=\"" +
           std::string(HeartbeatStageName(stage)) + "\"} " +
           std::to_string(telemetry->heartbeats().beats(stage)) + "\n";
  }

  if (options_.watchdog != nullptr) {
    out += "# TYPE scanraw_watchdog_stalls_total counter\n";
    out += "scanraw_watchdog_stalls_total " +
           std::to_string(options_.watchdog->stalls_detected()) + "\n";
  }
  return out;
}

std::string StatsServer::RenderStatusz() const {
  const int64_t now = RealClock::Instance()->NowNanos();
  std::string out;
  out.reserve(2048);
  out += "scanraw statusz\n";
  out += "build: " + options_.build_info + "\n";
  out += "uptime_seconds: " +
         FormatDouble(static_cast<double>(now - start_nanos_) * 1e-9) + "\n";
  out += "stats_requests_served: " + std::to_string(requests_served()) + "\n";

  if (options_.watchdog != nullptr) {
    out += "\nwatchdog: window_ms=" +
           std::to_string(options_.watchdog->window_ms()) +
           " stalls=" + std::to_string(options_.watchdog->stalls_detected()) +
           "\n";
    for (const auto& report : options_.watchdog->Reports()) {
      out += "  stall: stage=" +
             std::string(HeartbeatStageName(report.stage)) +
             " stalled_ms=" + std::to_string(report.stalled_ms) +
             " active=" + std::to_string(report.active) + "\n";
      if (!report.held_locks.empty()) {
        out += "  stall held locks:\n";
        for (size_t pos = 0; pos < report.held_locks.size();) {
          size_t eol = report.held_locks.find('\n', pos);
          if (eol == std::string::npos) eol = report.held_locks.size();
          out += "    " + report.held_locks.substr(pos, eol - pos) + "\n";
          pos = eol + 1;
        }
      }
    }
  }

  Telemetry* telemetry = options_.telemetry;
  out += "\nstage liveness (active threads / total beats):\n";
  for (size_t i = 0; i < kNumHeartbeatStages; ++i) {
    const auto stage = static_cast<HeartbeatStage>(i);
    out += "  " + std::string(HeartbeatStageName(stage)) + ": " +
           std::to_string(telemetry->heartbeats().active(stage)) + " / " +
           std::to_string(telemetry->heartbeats().beats(stage)) + "\n";
  }

  const auto rates = telemetry->timeseries().Rates(kRateWindowNanos);
  if (!rates.empty()) {
    out += "\ntrailing rates (window " +
           std::to_string(kRateWindowNanos / 1'000'000'000) + "s):\n";
    for (const auto& row : rates) {
      out += "  " + row.name + ": ";
      if (row.kind == TimeSeries::Kind::kCounter) {
        out += row.rate_defined ? FormatDouble(row.rate_per_sec) + "/s"
                                : std::string("(no window yet)");
        out += "  total=" + FormatDouble(row.latest);
      } else {
        out += FormatDouble(row.latest);
      }
      out += "\n";
    }
  }

  if (options_.statusz_section) {
    out += "\n";
    out += options_.statusz_section();
  }
  return out;
}

std::string StatsServer::RenderHealthz(bool* healthy) const {
  *healthy = options_.watchdog == nullptr ||
             options_.watchdog->stalls_detected() == 0;
  if (*healthy) return "ok\n";
  return "stalled: watchdog detected " +
         std::to_string(options_.watchdog->stalls_detected()) +
         " stall(s); see /statusz\n";
}

}  // namespace obs
}  // namespace scanraw
