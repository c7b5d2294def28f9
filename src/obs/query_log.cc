#include "obs/query_log.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "io/fault_injection.h"
#include "obs/metrics.h"

namespace scanraw {
namespace obs {

namespace {

constexpr int kLogVersion = 1;
constexpr std::string_view kHeaderPrefix = "{\"scanraw_query_log\":";

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string U64(uint64_t v) {
  return std::to_string(static_cast<unsigned long long>(v));
}

std::string SizeArray(const std::vector<size_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

int64_t WallClockMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// --- Minimal parser for the machine-written single-line JSON above. The
// format is our own (stable key order, escaped strings), so a key-directed
// extractor is enough; anything it cannot account for is "corrupt" and the
// reader drops the line with a counter rather than guessing.

// Position just past `"key":`, or npos. Values escape '"', so a literal
// `"key":` can never appear inside a string value.
size_t AfterKey(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const size_t pos = line.find(needle);
  return pos == std::string_view::npos ? std::string_view::npos
                                       : pos + needle.size();
}

bool ParseU64At(std::string_view line, size_t pos, uint64_t* out) {
  if (pos >= line.size() || !std::isdigit(static_cast<unsigned char>(line[pos])))
    return false;
  uint64_t v = 0;
  while (pos < line.size() && std::isdigit(static_cast<unsigned char>(line[pos]))) {
    v = v * 10 + static_cast<uint64_t>(line[pos] - '0');
    ++pos;
  }
  *out = v;
  return true;
}

bool ParseU64Field(std::string_view line, std::string_view key, uint64_t* out) {
  const size_t pos = AfterKey(line, key);
  return pos != std::string_view::npos && ParseU64At(line, pos, out);
}

bool ParseI64Field(std::string_view line, std::string_view key, int64_t* out) {
  size_t pos = AfterKey(line, key);
  if (pos == std::string_view::npos) return false;
  bool neg = false;
  if (pos < line.size() && line[pos] == '-') {
    neg = true;
    ++pos;
  }
  uint64_t v = 0;
  if (!ParseU64At(line, pos, &v)) return false;
  *out = neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
  return true;
}

bool ParseDoubleField(std::string_view line, std::string_view key,
                      double* out) {
  const size_t pos = AfterKey(line, key);
  if (pos == std::string_view::npos || pos >= line.size()) return false;
  // strtod needs a terminated buffer; numbers are short.
  char buf[64];
  size_t n = 0;
  while (pos + n < line.size() && n + 1 < sizeof(buf)) {
    const char c = line[pos + n];
    if (c == ',' || c == '}' || c == ']') break;
    buf[n++] = c;
  }
  buf[n] = '\0';
  if (n == 0) return false;
  char* end = nullptr;
  *out = std::strtod(buf, &end);
  return end == buf + n;
}

bool ParseBoolField(std::string_view line, std::string_view key, bool* out) {
  const size_t pos = AfterKey(line, key);
  if (pos == std::string_view::npos) return false;
  if (line.substr(pos, 4) == "true") {
    *out = true;
    return true;
  }
  if (line.substr(pos, 5) == "false") {
    *out = false;
    return true;
  }
  return false;
}

bool JsonUnescape(std::string_view in, std::string* out) {
  out->clear();
  out->reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '\\') {
      *out += in[i];
      continue;
    }
    if (++i >= in.size()) return false;
    switch (in[i]) {
      case '"': *out += '"'; break;
      case '\\': *out += '\\'; break;
      case '/': *out += '/'; break;
      case 'n': *out += '\n'; break;
      case 'r': *out += '\r'; break;
      case 't': *out += '\t'; break;
      case 'u': {
        if (i + 4 >= in.size()) return false;
        unsigned v = 0;
        for (int k = 1; k <= 4; ++k) {
          const char c = in[i + k];
          v <<= 4;
          if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
          else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
          else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
          else return false;
        }
        // JsonEscape only \u-encodes control bytes, so one char suffices.
        *out += static_cast<char>(v & 0xff);
        i += 4;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

bool ParseStringField(std::string_view line, std::string_view key,
                      std::string* out) {
  size_t pos = AfterKey(line, key);
  if (pos == std::string_view::npos || pos >= line.size() || line[pos] != '"')
    return false;
  ++pos;
  size_t end = pos;
  while (end < line.size() && line[end] != '"') {
    if (line[end] == '\\') ++end;  // skip the escaped char
    ++end;
  }
  if (end >= line.size()) return false;  // unterminated string: torn
  return JsonUnescape(line.substr(pos, end - pos), out);
}

bool ParseSizeArrayField(std::string_view line, std::string_view key,
                         std::vector<size_t>* out) {
  size_t pos = AfterKey(line, key);
  if (pos == std::string_view::npos || pos >= line.size() || line[pos] != '[')
    return false;
  ++pos;
  out->clear();
  if (pos < line.size() && line[pos] == ']') return true;
  while (pos < line.size()) {
    uint64_t v = 0;
    if (!ParseU64At(line, pos, &v)) return false;
    out->push_back(static_cast<size_t>(v));
    while (pos < line.size() && std::isdigit(static_cast<unsigned char>(line[pos])))
      ++pos;
    if (pos >= line.size()) return false;
    if (line[pos] == ']') return true;
    if (line[pos] != ',') return false;
    ++pos;
  }
  return false;
}

// `"stages":{"read":0.1,...}` — names are stage identifiers (no escapes).
bool ParseStageMap(std::string_view line,
                   std::vector<std::pair<std::string, double>>* out) {
  size_t pos = AfterKey(line, "stages");
  if (pos == std::string_view::npos || pos >= line.size() || line[pos] != '{')
    return false;
  ++pos;
  out->clear();
  if (pos < line.size() && line[pos] == '}') return true;
  while (pos < line.size()) {
    if (line[pos] != '"') return false;
    const size_t name_end = line.find('"', pos + 1);
    if (name_end == std::string_view::npos) return false;
    std::string name(line.substr(pos + 1, name_end - pos - 1));
    pos = name_end + 1;
    if (pos >= line.size() || line[pos] != ':') return false;
    ++pos;
    char buf[64];
    size_t n = 0;
    while (pos + n < line.size() && n + 1 < sizeof(buf)) {
      const char c = line[pos + n];
      if (c == ',' || c == '}') break;
      buf[n++] = c;
    }
    buf[n] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (n == 0 || end != buf + n) return false;
    out->emplace_back(std::move(name), v);
    pos += n;
    if (pos >= line.size()) return false;
    if (line[pos] == '}') return true;
    if (line[pos] != ',') return false;
    ++pos;
  }
  return false;
}

// Header line for a fresh generation: {"scanraw_query_log":1}
std::string HeaderLine() {
  return std::string(kHeaderPrefix) + std::to_string(kLogVersion) + "}";
}

// Parses a header line; returns the version or 0 when not a header.
int HeaderVersion(std::string_view line) {
  if (line.substr(0, kHeaderPrefix.size()) != kHeaderPrefix) return 0;
  uint64_t v = 0;
  if (!ParseU64At(line, kHeaderPrefix.size(), &v)) return 0;
  return static_cast<int>(v);
}

}  // namespace

std::string QueryLogEvent::ToJsonLine() const {
  std::string out = "{";
  out += "\"seq\":" + U64(seq);
  out += ",\"ts_unix_micros\":" + std::to_string(ts_unix_micros);
  out += ",\"table\":\"" + JsonEscape(table) + "\"";
  out += ",\"policy\":\"" + JsonEscape(policy) + "\"";
  out += ",\"status\":\"" + JsonEscape(status) + "\"";
  out += ",\"wall_seconds\":" + Fmt("%.9g", wall_seconds);
  out += ",\"columns\":" + SizeArray(columns);
  out += ",\"predicate_columns\":" + SizeArray(predicate_columns);
  out += ",\"rows_scanned\":" + U64(rows_scanned);
  out += ",\"rows_matched\":" + U64(rows_matched);
  out += ",\"stages\":{";
  for (size_t i = 0; i < stage_busy_seconds.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(stage_busy_seconds[i].first) +
           "\":" + Fmt("%.9g", stage_busy_seconds[i].second);
  }
  out += "}";
  out += ",\"chunks\":{\"cache\":" + U64(chunks_from_cache) +
         ",\"db\":" + U64(chunks_from_db) + ",\"raw\":" + U64(chunks_from_raw) +
         ",\"skipped\":" + U64(chunks_skipped) +
         ",\"written\":" + U64(chunks_written) + "}";
  out += ",\"speculative_triggers\":" + U64(speculative_triggers);
  out += ",\"bytes_read\":" + U64(bytes_read);
  out += ",\"bytes_written\":" + U64(bytes_written);
  out += ",\"useful_bytes_written\":" + U64(useful_bytes_written);
  out += ",\"cache_hit_rate\":" + Fmt("%.9g", cache_hit_rate);
  out += ",\"posmap_hit_rate\":" + Fmt("%.9g", posmap_hit_rate);
  out += ",\"paid_off\":" + std::string(speculation_paid_off ? "true" : "false");
  out += ",\"advisor_used\":" + std::string(advisor_used ? "true" : "false");
  out += "}";
  return out;
}

bool QueryLogEvent::FromJsonLine(std::string_view line, QueryLogEvent* event) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}')
    return false;
  QueryLogEvent e;
  // Every field ToJsonLine writes must parse; a torn suffix fails here.
  if (!ParseU64Field(line, "seq", &e.seq)) return false;
  if (!ParseI64Field(line, "ts_unix_micros", &e.ts_unix_micros)) return false;
  if (!ParseStringField(line, "table", &e.table)) return false;
  if (!ParseStringField(line, "policy", &e.policy)) return false;
  if (!ParseStringField(line, "status", &e.status)) return false;
  if (!ParseDoubleField(line, "wall_seconds", &e.wall_seconds)) return false;
  if (!ParseSizeArrayField(line, "columns", &e.columns)) return false;
  if (!ParseSizeArrayField(line, "predicate_columns", &e.predicate_columns))
    return false;
  if (!ParseU64Field(line, "rows_scanned", &e.rows_scanned)) return false;
  if (!ParseU64Field(line, "rows_matched", &e.rows_matched)) return false;
  if (!ParseStageMap(line, &e.stage_busy_seconds)) return false;
  if (!ParseU64Field(line, "cache", &e.chunks_from_cache)) return false;
  if (!ParseU64Field(line, "db", &e.chunks_from_db)) return false;
  if (!ParseU64Field(line, "raw", &e.chunks_from_raw)) return false;
  if (!ParseU64Field(line, "skipped", &e.chunks_skipped)) return false;
  if (!ParseU64Field(line, "written", &e.chunks_written)) return false;
  if (!ParseU64Field(line, "speculative_triggers", &e.speculative_triggers))
    return false;
  if (!ParseU64Field(line, "bytes_read", &e.bytes_read)) return false;
  if (!ParseU64Field(line, "bytes_written", &e.bytes_written)) return false;
  if (!ParseU64Field(line, "useful_bytes_written", &e.useful_bytes_written))
    return false;
  if (!ParseDoubleField(line, "cache_hit_rate", &e.cache_hit_rate))
    return false;
  if (!ParseDoubleField(line, "posmap_hit_rate", &e.posmap_hit_rate))
    return false;
  if (!ParseBoolField(line, "paid_off", &e.speculation_paid_off)) return false;
  if (!ParseBoolField(line, "advisor_used", &e.advisor_used)) return false;
  *event = std::move(e);
  return true;
}

QueryLog::QueryLog(std::string path, QueryLogOptions options)
    : path_(std::move(path)), options_(options) {}

QueryLog::~QueryLog() {
  // Destruction cannot report errors; durable users call Close() and check.
  const Status st = Close();
  static_cast<void>(st);
}

Result<std::unique_ptr<QueryLog>> QueryLog::Open(const std::string& path,
                                                 QueryLogOptions options) {
  // Resume seq numbers past whatever already survives on disk (both
  // generations), so replayed histories see a strictly increasing stream.
  LoadStats stats;
  uint64_t resume_seq = 1;
  if (FileExists(path) || FileExists(path + ".1")) {
    auto existing = ReadAll(path, &stats);
    SCANRAW_RETURN_IF_ERROR(existing.status());
    resume_seq = stats.max_seq + 1;
  }
  std::unique_ptr<QueryLog> log(new QueryLog(path, options));
  MutexLock lock(log->mu_);
  log->next_seq_ = resume_seq;
  if (FileExists(path)) {
    // A crash mid-append leaves an unterminated trailing line. Detect it
    // here so the first append of this incarnation re-terminates it —
    // otherwise the new record would be concatenated onto the torn prefix
    // and both would be lost on the next reload.
    std::string existing;
    SCANRAW_ASSIGN_OR_RETURN(existing, ReadFileToString(path));
    log->needs_newline_ = !existing.empty() && existing.back() != '\n';
    SCANRAW_ASSIGN_OR_RETURN(log->file_, WritableFile::OpenForAppend(path));
    if (log->file_->bytes_written() == 0) {
      SCANRAW_RETURN_IF_ERROR(log->file_->Append(HeaderLine() + "\n"));
      SCANRAW_RETURN_IF_ERROR(log->file_->Flush());
    }
  } else {
    SCANRAW_RETURN_IF_ERROR(log->OpenFreshLocked());
  }
  return log;
}

Status QueryLog::OpenFreshLocked() {
  SCANRAW_ASSIGN_OR_RETURN(file_, WritableFile::Create(path_));
  SCANRAW_RETURN_IF_ERROR(file_->Append(HeaderLine() + "\n"));
  return file_->Flush();
}

Status QueryLog::RotateLocked() {
  // Close-rename-reopen. A crash between the kill-points leaves either the
  // old layout (full file at path_) or the new one (everything in the .1
  // generation); ReadAll stitches both, so no committed record is lost.
  Status st = file_->Flush();
  if (st.ok()) st = file_->Sync();
  if (st.ok()) st = file_->Close();
  file_.reset();
  SCANRAW_RETURN_IF_ERROR(st);
  FaultKillPoint("querylog.rotate.before_rename");
  SCANRAW_RETURN_IF_ERROR(RenameFile(path_, path_ + ".1"));
  FaultKillPoint("querylog.rotate.after_rename");
  ++rotations_;
  needs_newline_ = false;
  return OpenFreshLocked();
}

Status QueryLog::AppendLocked(const std::string& line) {
  if (file_ == nullptr) return Status::Aborted("query log closed");
  if (needs_newline_) {
    // Terminate the torn line left by a failed append; the prefix becomes
    // one corrupt line the reader drops and counts.
    SCANRAW_RETURN_IF_ERROR(file_->Append("\n", 1));
    needs_newline_ = false;
  }
  SCANRAW_RETURN_IF_ERROR(file_->Append(line));
  // Flushed, never synced: the log is advisory state, and a torn tail is
  // recoverable by design.
  return file_->Flush();
}

Status QueryLog::Append(QueryLogEvent event) {
  MutexLock lock(mu_);
  event.seq = next_seq_++;
  if (event.ts_unix_micros == 0) event.ts_unix_micros = WallClockMicros();
  const std::string line = event.ToJsonLine() + "\n";
  if (file_ != nullptr && options_.rotate_bytes > 0 &&
      file_->bytes_written() + line.size() > options_.rotate_bytes &&
      file_->bytes_written() > HeaderLine().size() + 1) {
    SCANRAW_RETURN_IF_ERROR(RotateLocked());
  }
  Status st = AppendLocked(line);
  if (!st.ok()) {
    ++append_failures_;
    needs_newline_ = true;
    return st;
  }
  ++events_appended_;
  if (observer_) observer_(event);
  return Status::OK();
}

void QueryLog::SetObserver(std::function<void(const QueryLogEvent&)> observer) {
  MutexLock lock(mu_);
  observer_ = std::move(observer);
}

Status QueryLog::Close() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::OK();
  Status st = file_->Flush();
  if (st.ok()) st = file_->Sync();
  Status close_st = file_->Close();
  file_.reset();
  return st.ok() ? close_st : st;
}

uint64_t QueryLog::events_appended() const {
  MutexLock lock(mu_);
  return events_appended_;
}

uint64_t QueryLog::append_failures() const {
  MutexLock lock(mu_);
  return append_failures_;
}

uint64_t QueryLog::rotations() const {
  MutexLock lock(mu_);
  return rotations_;
}

uint64_t QueryLog::next_seq() const {
  MutexLock lock(mu_);
  return next_seq_;
}

Result<std::vector<QueryLogEvent>> QueryLog::ReadAll(const std::string& path,
                                                     LoadStats* stats) {
  LoadStats local;
  std::vector<QueryLogEvent> events;
  const std::string generations[] = {path + ".1", path};
  for (const std::string& gen : generations) {
    if (!FileExists(gen)) continue;
    std::string data;
    SCANRAW_ASSIGN_OR_RETURN(data, ReadFileToString(gen));
    ++local.generations;
    size_t start = 0;
    bool saw_header = false;
    while (start < data.size()) {
      size_t end = data.find('\n', start);
      const bool terminated = end != std::string::npos;
      if (!terminated) end = data.size();
      const std::string_view line(data.data() + start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      if (!saw_header) {
        // First line must be the versioned header; a freshly created file
        // killed before the header write is empty and never gets here.
        const int version = HeaderVersion(line);
        if (version == 0 || version > kLogVersion) {
          return Status::Corruption("query log " + gen +
                                    ": bad or unsupported header");
        }
        local.version = version;
        saw_header = true;
        continue;
      }
      QueryLogEvent event;
      if (QueryLogEvent::FromJsonLine(line, &event)) {
        if (event.seq > local.max_seq) local.max_seq = event.seq;
        ++local.events;
        events.push_back(std::move(event));
      } else if (terminated) {
        ++local.dropped_corrupt;
      } else {
        ++local.dropped_torn;  // torn trailing record: expected crash damage
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return events;
}

}  // namespace obs
}  // namespace scanraw
