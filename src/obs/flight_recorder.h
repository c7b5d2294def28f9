// Flight recorder: an always-on, fixed-size, per-thread ring buffer of
// recent pipeline events, and the one store of chunk-stage crossings. Each
// READ, TOKENIZE, PARSE and WRITE of a chunk is one span (start time and
// duration); scheduler decisions and query boundaries are instant events.
// The rings are dumped when the process is about to die (crash handler,
// FaultKillPoint) or on demand (`--flight-dump`), and export as Chrome
// trace_event JSON (`--trace-out`). The point is post-mortem visibility:
// after an injected or real crash, the dump shows the last thing every
// pipeline thread was doing.
//
// Record-path contract (enforced by scanraw-lint's flight-record-path rule
// and exercised under TSan): Record* functions take no locks and perform
// no allocation or IO — each event is four relaxed atomic stores into a
// pre-sized ring claimed per thread with a single CAS. Concurrent dumps and
// exports read the same atomics; an event being written while read may
// appear torn (fields from two events), which is acceptable for a crash
// artifact and is why the slots are atomics (keeps TSan clean) rather than
// plain memory.
//
// Deliberately independent of io/: the dump must work when the io layer is
// the thing that failed (and io/fault_injection.cc calls into the dump
// right before _exit), so output goes through raw write(2).
#ifndef SCANRAW_OBS_FLIGHT_RECORDER_H_
#define SCANRAW_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace scanraw {
namespace obs {

// Small dense id for the current OS thread, stable for the thread's
// lifetime (first call assigns the next free id).
uint32_t CurrentThreadId();

// Events from kRead on carry a chunk index in `a`. The stage spans are
// kRead (a raw chunk) through kWrite; every other event is an instant.
enum class FlightEvent : uint8_t {
  kNone = 0,
  kQueryBegin,
  kQueryEnd,
  kSafeguardFlush,
  kKillPoint,
  kError,
  kRead,
  kReadDb,
  kTokenize,
  kParse,
  kWrite,
  kDeliver,
  kSpeculativeTrigger,
  kReadBlocked,
  kCacheEvict,
};

const char* FlightEventName(FlightEvent event);

class FlightRecorder {
 public:
  static constexpr size_t kNumRings = 64;    // concurrent threads covered
  static constexpr size_t kRingEvents = 256; // recent events kept per ring

  // Process-global recorder (never destroyed). All call sites record here.
  static FlightRecorder* Global();

  // Appends one instant event, stamped now, to the calling thread's ring.
  // Lock-free and allocation-free; silently drops (with a counter) if more
  // than kNumRings threads record at once.
  void Record(FlightEvent event, uint64_t a = 0, uint64_t b = 0);

  // Appends one span that started at `start_nanos` (RealClock time) and
  // lasted `dur_nanos`, kept at microsecond resolution up to ~71 minutes.
  void RecordSpan(FlightEvent event, int64_t start_nanos, int64_t dur_nanos,
                  uint64_t a, uint64_t b);

  // Writes a human-readable dump of every non-empty ring to `fd` using raw
  // write(2). Safe to call while other threads record.
  void DumpTo(int fd) const;

  // DumpTo an opened/created file (0644, truncated); false if open fails.
  bool DumpToFile(const char* path) const;

  // Chrome trace_event JSON of every retained event, loadable by
  // chrome://tracing or Perfetto: complete ("ph":"X") events for stage
  // spans, instant ("ph":"i") events for the rest. Chunk events carry
  // `chunk` and `source` args; timestamps are microseconds relative to the
  // earliest event. A non-empty `process_name` adds the metadata event.
  // Holds each thread's last kRingEvents events; safe while others record.
  std::string ToChromeTraceJson(std::string_view process_name) const;

  // Where DumpOnCrash writes: a file path, or stderr when unset. Copied
  // into a fixed buffer (no allocation at crash time).
  void SetCrashDumpPath(const char* path);

  // Called on the way into _exit (FaultInjector::MaybeKill, crash
  // handlers). Dumps to the configured path or stderr. Async-signal-safe
  // apart from open(2)/write(2).
  void DumpOnCrash() const;

  uint64_t events_recorded() const;
  uint64_t events_dropped() const;
  // Number of rings that have ever been claimed by a thread.
  size_t rings_used() const;

  // Test hook: clears every ring and counter. Not safe concurrently with
  // Record; tests call it between quiesced phases only.
  void ResetForTest();

 private:
  friend struct FlightRecorderTlsHandle;

  struct Slot {
    std::atomic<uint64_t> ts_nanos{0};  // span start, or instant time
    // (duration_us << 32) | (thread_id << 8) | event type
    std::atomic<uint64_t> packed{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  struct Ring {
    std::atomic<bool> in_use{false};        // claimed by a live thread
    std::atomic<uint64_t> ever_claimed{0};  // sticky: kept for the dump
    std::atomic<uint64_t> next{0};          // events recorded (mod = slot)
    Slot slots[kRingEvents];
  };

  FlightRecorder() = default;

  Ring* ClaimRing();
  void ReleaseRing(Ring* ring);

  Ring rings_[kNumRings];
  std::atomic<uint64_t> dropped_{0};
  // Crash-dump destination; fixed storage, written before any crash.
  char crash_path_[512] = {0};
  std::atomic<bool> crash_path_set_{false};
};

// Convenience for pipeline call sites.
inline void FlightRecord(FlightEvent event, uint64_t a = 0, uint64_t b = 0) {
  FlightRecorder::Global()->Record(event, a, b);
}

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_FLIGHT_RECORDER_H_
