#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/metrics.h"

namespace scanraw {
namespace obs {

namespace {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// write(2) with the short-write loop; best-effort — a crash dump has
// nowhere to report errors to.
void WriteAll(int fd, const char* data, size_t length) {
  while (length > 0) {
    const ssize_t n = ::write(fd, data, length);
    if (n <= 0) return;
    data += n;
    length -= static_cast<size_t>(n);
  }
}

void WriteLine(int fd, const char* line) { WriteAll(fd, line, strlen(line)); }

// Thread ids occupy 24 bits of a slot's packed word.
constexpr uint64_t kTidMask = 0xffffff;

}  // namespace

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* FlightEventName(FlightEvent event) {
  switch (event) {
    case FlightEvent::kNone: return "none";
    case FlightEvent::kQueryBegin: return "query-begin";
    case FlightEvent::kQueryEnd: return "query-end";
    case FlightEvent::kSafeguardFlush: return "safeguard-flush";
    case FlightEvent::kKillPoint: return "kill-point";
    case FlightEvent::kError: return "error";
    case FlightEvent::kRead: return "read";
    case FlightEvent::kReadDb: return "read-db";
    case FlightEvent::kTokenize: return "tokenize";
    case FlightEvent::kParse: return "parse";
    case FlightEvent::kWrite: return "write";
    case FlightEvent::kDeliver: return "deliver";
    case FlightEvent::kSpeculativeTrigger: return "spec-trigger";
    case FlightEvent::kReadBlocked: return "read-blocked";
    case FlightEvent::kCacheEvict: return "cache-evict";
  }
  return "unknown";
}

// Per-thread claim on one ring; the destructor releases the claim (content
// is retained for the dump) when the thread exits.
struct FlightRecorderTlsHandle {
  FlightRecorder::Ring* ring = nullptr;
  FlightRecorder* owner = nullptr;

  ~FlightRecorderTlsHandle() {
    if (ring != nullptr && owner != nullptr) owner->ReleaseRing(ring);
  }
};

namespace {
thread_local FlightRecorderTlsHandle tls_handle;
}  // namespace

FlightRecorder* FlightRecorder::Global() {
  // Leaked singleton: rings must outlive every recording thread, including
  // detached ones running through static destruction. SCANRAW_FLIGHT_DUMP
  // seeds the crash-dump destination; an explicit SetCrashDumpPath (the
  // --flight-dump-on-crash CLI flag) still overrides it later.
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    const char* env = std::getenv("SCANRAW_FLIGHT_DUMP");
    if (env != nullptr && env[0] != '\0') r->SetCrashDumpPath(env);
    return r;
  }();
  return recorder;
}

FlightRecorder::Ring* FlightRecorder::ClaimRing() {
  for (size_t i = 0; i < kNumRings; ++i) {
    bool expected = false;
    if (rings_[i].in_use.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel)) {
      rings_[i].ever_claimed.store(1, std::memory_order_relaxed);
      return &rings_[i];
    }
  }
  return nullptr;
}

void FlightRecorder::ReleaseRing(Ring* ring) {
  ring->in_use.store(false, std::memory_order_release);
}

void FlightRecorder::Record(FlightEvent event, uint64_t a, uint64_t b) {
  RecordSpan(event, static_cast<int64_t>(NowNanos()), 0, a, b);
}

void FlightRecorder::RecordSpan(FlightEvent event, int64_t start_nanos,
                                int64_t dur_nanos, uint64_t a, uint64_t b) {
  FlightRecorderTlsHandle& handle = tls_handle;
  if (handle.ring == nullptr || handle.owner != this) {
    handle.ring = ClaimRing();
    handle.owner = this;
    if (handle.ring == nullptr) {
      // More live threads than rings; drop rather than contend.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  Ring& ring = *handle.ring;
  const uint64_t index =
      ring.next.fetch_add(1, std::memory_order_relaxed) % kRingEvents;
  Slot& slot = ring.slots[index];
  // Relaxed stores: a dump racing these may see one torn event, which a
  // crash artifact tolerates; atomics keep the race defined (TSan-clean).
  const uint64_t dur_us = std::min<uint64_t>(
      static_cast<uint64_t>(std::max<int64_t>(0, dur_nanos)) / 1000,
      UINT32_MAX);
  slot.ts_nanos.store(static_cast<uint64_t>(start_nanos),
                      std::memory_order_relaxed);
  slot.packed.store((dur_us << 32) | ((CurrentThreadId() & kTidMask) << 8) |
                        static_cast<uint64_t>(event),
                    std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
}

void FlightRecorder::DumpTo(int fd) const {
  char line[256];
  const uint64_t now = NowNanos();
  std::snprintf(line, sizeof(line),
                "=== scanraw flight recorder: %llu events recorded, %llu "
                "dropped, %zu/%zu rings ===\n",
                static_cast<unsigned long long>(events_recorded()),
                static_cast<unsigned long long>(events_dropped()),
                rings_used(), kNumRings);
  WriteLine(fd, line);
  for (size_t r = 0; r < kNumRings; ++r) {
    const Ring& ring = rings_[r];
    if (ring.ever_claimed.load(std::memory_order_relaxed) == 0) continue;
    const uint64_t total = ring.next.load(std::memory_order_acquire);
    if (total == 0) continue;
    const uint64_t count = total < kRingEvents ? total : kRingEvents;
    std::snprintf(line, sizeof(line),
                  "-- ring %zu: %llu events (showing last %llu)\n", r,
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(count));
    WriteLine(fd, line);
    for (uint64_t i = total - count; i < total; ++i) {
      const Slot& slot = ring.slots[i % kRingEvents];
      const uint64_t packed = slot.packed.load(std::memory_order_relaxed);
      const FlightEvent event = static_cast<FlightEvent>(packed & 0xff);
      if (event == FlightEvent::kNone) continue;
      const uint64_t ts = slot.ts_nanos.load(std::memory_order_relaxed);
      const uint64_t age_us = ts <= now ? (now - ts) / 1000 : 0;
      std::snprintf(
          line, sizeof(line),
          "  tid=%llu -%8llu.%03llums %-12s a=%llu b=%llu\n",
          static_cast<unsigned long long>((packed >> 8) & kTidMask),
          static_cast<unsigned long long>(age_us / 1000),
          static_cast<unsigned long long>(age_us % 1000),
          FlightEventName(event),
          static_cast<unsigned long long>(
              slot.a.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(
              slot.b.load(std::memory_order_relaxed)));
      WriteLine(fd, line);
    }
  }
  WriteLine(fd, "=== end flight recorder ===\n");
}

bool FlightRecorder::DumpToFile(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpTo(fd);
  ::close(fd);
  return true;
}

std::string FlightRecorder::ToChromeTraceJson(
    std::string_view process_name) const {
  struct Event {
    uint64_t ts;
    uint64_t packed;
    uint64_t a;
    uint64_t b;
  };
  std::vector<Event> events;
  uint64_t epoch = UINT64_MAX;
  for (const Ring& ring : rings_) {
    if (ring.ever_claimed.load(std::memory_order_relaxed) == 0) continue;
    const uint64_t total = ring.next.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(total, kRingEvents);
    for (uint64_t i = total - count; i < total; ++i) {
      const Slot& slot = ring.slots[i % kRingEvents];
      const Event e{slot.ts_nanos.load(std::memory_order_relaxed),
                    slot.packed.load(std::memory_order_relaxed),
                    slot.a.load(std::memory_order_relaxed),
                    slot.b.load(std::memory_order_relaxed)};
      // An unwritten (or torn, half-written) slot has no event or no time.
      if ((e.packed & 0xff) == 0 || e.ts == 0) continue;
      events.push_back(e);
      epoch = std::min(epoch, e.ts);
    }
  }
  std::string out = "[";
  if (!process_name.empty()) {
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
           "{\"name\":\"" +
           JsonEscape(process_name) + "\"}}";
  }
  for (const Event& e : events) {
    if (out.size() > 1) out += ",\n";
    const FlightEvent event = static_cast<FlightEvent>(e.packed & 0xff);
    const bool span =
        event >= FlightEvent::kRead && event <= FlightEvent::kWrite;
    out += "{\"name\":\"";
    out += FlightEventName(event);
    out += "\",\"cat\":\"scanraw\",\"ph\":\"";
    out += span ? "X" : "i";
    out += "\",\"ts\":" + std::to_string((e.ts - epoch) / 1000);
    out += span ? ",\"dur\":" + std::to_string(e.packed >> 32)
                : std::string(",\"s\":\"p\"");
    out += ",\"pid\":1,\"tid\":" + std::to_string((e.packed >> 8) & kTidMask);
    if (event >= FlightEvent::kRead) {
      out += ",\"args\":{\"chunk\":" + std::to_string(e.a) +
             ",\"source\":\"";
      out += event == FlightEvent::kReadDb ? "db" : "raw";
      out += "\"}}";
    } else {
      out += ",\"args\":{\"a\":" + std::to_string(e.a) +
             ",\"b\":" + std::to_string(e.b) + "}}";
    }
  }
  out += "]\n";
  return out;
}

void FlightRecorder::SetCrashDumpPath(const char* path) {
  if (path == nullptr || path[0] == '\0') {
    crash_path_set_.store(false, std::memory_order_release);
    return;
  }
  std::strncpy(crash_path_, path, sizeof(crash_path_) - 1);
  crash_path_[sizeof(crash_path_) - 1] = '\0';
  crash_path_set_.store(true, std::memory_order_release);
}

void FlightRecorder::DumpOnCrash() const {
  if (crash_path_set_.load(std::memory_order_acquire)) {
    if (DumpToFile(crash_path_)) return;
  }
  DumpTo(STDERR_FILENO);
}

uint64_t FlightRecorder::events_recorded() const {
  uint64_t total = 0;
  for (const Ring& ring : rings_) {
    total += ring.next.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FlightRecorder::events_dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

size_t FlightRecorder::rings_used() const {
  size_t used = 0;
  for (const Ring& ring : rings_) {
    if (ring.ever_claimed.load(std::memory_order_relaxed) != 0) ++used;
  }
  return used;
}

void FlightRecorder::ResetForTest() {
  for (Ring& ring : rings_) {
    ring.next.store(0, std::memory_order_relaxed);
    // Rings released by exited threads stop counting as used; rings still
    // claimed by live threads (their TLS handles point here) stay sticky.
    ring.ever_claimed.store(ring.in_use.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    for (Slot& slot : ring.slots) {
      slot.ts_nanos.store(0, std::memory_order_relaxed);
      slot.packed.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
    }
  }
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace scanraw
