#include "scanraw/scanraw_manager.h"

#include "common/clock.h"
#include "common/string_util.h"
#include "io/fault_injection.h"
#include "io/file.h"
#include "obs/log.h"

namespace scanraw {

HeapScanStream::HeapScanStream(const TableMetadata& table,
                               const StorageManager* storage,
                               std::vector<size_t> columns,
                               std::optional<RangePredicate> filter,
                               obs::SpanProfiler* profiler)
    : scan_(table, storage, std::move(columns)), profiler_(profiler) {
  if (filter.has_value()) {
    scan_.SetRangeFilter(filter->column, filter->lo, filter->hi);
  }
}

Result<std::optional<BinaryChunkPtr>> HeapScanStream::Next() {
  obs::SpanProfiler::Scope span(profiler_, obs::QueryStage::kHeapScan);
  auto chunk = scan_.Next();
  if (!chunk.ok()) return chunk.status();
  if (!chunk->has_value()) return std::optional<BinaryChunkPtr>();
  return std::optional<BinaryChunkPtr>(
      std::make_shared<const BinaryChunk>(std::move(**chunk)));
}

Result<std::unique_ptr<ScanRawManager>> ScanRawManager::Create(
    const Config& config) {
  std::unique_ptr<ScanRawManager> manager(new ScanRawManager(config));
  auto storage =
      config.reuse_existing_db
          ? StorageManager::OpenExisting(config.db_path,
                                         manager->limiter_.get(),
                                         &manager->io_stats_)
          : StorageManager::Create(config.db_path, manager->limiter_.get(),
                                   &manager->io_stats_);
  if (!storage.ok()) return storage.status();
  manager->storage_ = std::move(*storage);
  manager->storage_->SetCompression(config.compress_segments);
  obs::MetricsRegistry& registry = manager->telemetry_.metrics();
  manager->arbiter_.BindMetrics(
      registry.GetHistogram("disk.reader_wait_nanos"),
      registry.GetHistogram("disk.writer_wait_nanos"),
      registry.GetHistogram("disk.reader_hold_nanos"),
      registry.GetHistogram("disk.writer_hold_nanos"));
  manager->storage_->BindMetrics(
      registry.GetCounter("storage.segments_written"),
      registry.GetCounter("storage.bytes_written"),
      registry.GetHistogram("storage.segment_write_nanos"));
  if (manager->limiter_ != nullptr) {
    manager->limiter_->BindMetrics(
        registry.GetHistogram("disk.limiter_wait_nanos"),
        registry.GetCounter("disk.limiter_throttle_events"));
  }
  // The arbiter beats into the manager-wide board so blocked disk waits are
  // watchdog-visible even before any operator exists. (Operators carrying
  // their own telemetry sink rebind it to theirs.)
  manager->arbiter_.BindHeartbeats(&manager->telemetry_.heartbeats());
  if (config.watchdog_ms > 0) {
    obs::WatchdogOptions wd;
    wd.window_ms = config.watchdog_ms;
    wd.abort_on_stall = config.watchdog_abort;
    wd.flight_dump_path = config.watchdog_dump_path;
    manager->watchdog_ = std::make_unique<obs::Watchdog>(
        &manager->telemetry_.heartbeats(), wd);
    manager->watchdog_->Start();
  }
  return manager;
}

ScanRawManager::ScanRawManager(const Config& config)
    : config_(config),
      limiter_(config.disk_bandwidth > 0
                   ? std::make_unique<RateLimiter>(config.disk_bandwidth)
                   : nullptr) {}

Status ScanRawManager::RegisterRawFile(const std::string& table,
                                       const std::string& path,
                                       const Schema& schema,
                                       const ScanRawOptions& options) {
  SCANRAW_RETURN_IF_ERROR(
      catalog_.CreateTable(table, path, schema, options.chunk_rows));
  MutexLock lock(mu_);
  options_[table] = options;
  return Status::OK();
}

Status ScanRawManager::SaveCatalog(const std::string& path) const {
  // Drain in-flight background writes (speculative / safeguard flushes)
  // first: a segment that lands after the snapshot would be durable but
  // unreferenced, and its chunk would be re-extracted on restart.
  {
    MutexLock lock(mu_);
    for (const auto& [name, op] : operators_) op->WaitForWrites();
  }
  // Durability ordering: every segment byte reaches stable storage before
  // the catalog that references it. The write path also syncs per segment;
  // this is the catch-all for anything buffered since.
  SCANRAW_RETURN_IF_ERROR(storage_->Sync());
  // Posmap sidecars follow the same data-before-metadata rule: each one is
  // written (atomically) before the catalog whose restart path will trust
  // it. The sidecars are advisory — a failed save degrades the next restart
  // to re-tokenizing, so it is logged but never fails the catalog save.
  {
    MutexLock lock(mu_);
    posmap_base_path_ = path;
    for (const auto& [name, op] : operators_) {
      if (!op->options().persist_positional_maps) continue;
      const Status saved =
          op->SavePositionalMaps(PosmapSidecarPath(path, name));
      if (!saved.ok()) {
        LOG_WARN("scanraw: posmap sidecar save failed for %s: %s",
                 name.c_str(), saved.ToString().c_str());
      }
    }
  }
  FaultKillPoint("manager.save_catalog.before");
  Status s = catalog_.SaveToFile(path);
  FaultKillPoint("manager.save_catalog.after");
  return s;
}

Status ScanRawManager::LoadCatalog(const std::string& path) {
  {
    MutexLock lock(mu_);
    if (!operators_.empty()) {
      return Status::InvalidArgument(
          "cannot load a catalog while operators are live");
    }
  }
  Catalog::LoadStats load_stats;
  SCANRAW_RETURN_IF_ERROR(catalog_.LoadFromFile(path, &load_stats));
  ReconcileReport report = ReconcileCatalogWithStorage(
      catalog_, *storage_, config_.verify_segments_on_load);
  obs::MetricsRegistry& registry = telemetry_.metrics();
  registry.GetCounter("recovery.segments_checked")
      ->Add(report.segments_checked);
  registry.GetCounter("recovery.segments_dropped")
      ->Add(report.segments_dropped);
  registry.GetCounter("recovery.chunks_reverted")->Add(report.chunks_reverted);
  if (load_stats.torn_tail_dropped) {
    registry.GetCounter("recovery.catalog_torn_tail_dropped")->Add(1);
    report.details.push_back("catalog: dropped torn trailing line: " +
                             load_stats.torn_tail);
  }
  // Posmap reconciliation: stage each table's sidecar for the operator that
  // will be created on first query. A torn, corrupt, or stale sidecar is
  // dropped here — the maps are derived data, so the only consequence is
  // that the table re-tokenizes on its next scan.
  std::map<std::string, PosmapSidecar> staged;
  for (const auto& [name, table] : catalog_.Snapshot()) {
    const std::string sidecar_path = PosmapSidecarPath(path, name);
    if (!FileExists(sidecar_path)) continue;
    auto sidecar = LoadPosmapSidecar(sidecar_path, table);
    if (!sidecar.ok()) {
      ++report.posmaps_dropped;
      registry.GetCounter("recovery.posmap_dropped")->Add(1);
      report.details.push_back("posmap " + name + ": dropped sidecar: " +
                               sidecar.status().ToString());
      continue;
    }
    registry.GetCounter("recovery.posmap_chunks_loaded")
        ->Add(sidecar->entries.size());
    staged.emplace(name, std::move(*sidecar));
  }
  MutexLock lock(mu_);
  posmap_base_path_ = path;
  pending_posmaps_ = std::move(staged);
  last_recovery_ = std::move(report);
  return Status::OK();
}

std::string ScanRawManager::Statusz() const {
  std::string out;
  for (const std::string& table : catalog_.TableNames()) {
    auto meta = catalog_.GetTable(table);
    if (!meta.ok()) continue;
    out += "table " + table + ":\n";
    ScanRaw* op = nullptr;
    {
      MutexLock lock(mu_);
      auto it = operators_.find(table);
      if (it != operators_.end()) op = it->second.get();
    }
    if (op != nullptr) {
      out += op->StatuszSection();
    } else {
      out += StringPrintf("  loaded_fraction: %.3f\n", meta->LoadedFraction());
      out += meta->FullyLoaded() ? "  operator: retired (heap scan)\n"
                                 : "  operator: not yet created\n";
    }
  }
  if (watchdog_ != nullptr) {
    out += StringPrintf("watchdog: window=%lldms stalls=%llu\n",
                        static_cast<long long>(watchdog_->window_ms()),
                        static_cast<unsigned long long>(
                            watchdog_->stalls_detected()));
  }
  return out;
}

ReconcileReport ScanRawManager::last_recovery() const {
  MutexLock lock(mu_);
  return last_recovery_;
}

Status ScanRawManager::AttachOptions(const std::string& table,
                                     const ScanRawOptions& options) {
  if (!catalog_.HasTable(table)) {
    return Status::NotFound("table " + table + " not in catalog");
  }
  MutexLock lock(mu_);
  options_[table] = options;
  return Status::OK();
}

ScanRaw* ScanRawManager::GetOperator(const std::string& table) {
  MutexLock lock(mu_);
  auto it = operators_.find(table);
  return it == operators_.end() ? nullptr : it->second.get();
}

bool ScanRawManager::IsRetired(const std::string& table) {
  auto meta = catalog_.GetTable(table);
  if (!meta.ok() || !meta->FullyLoaded()) return false;
  MutexLock lock(mu_);
  return operators_.find(table) == operators_.end();
}

Result<QueryResult> ScanRawManager::Query(const std::string& table,
                                          const QuerySpec& spec) {
  return Query(table, spec, nullptr);
}

Result<QueryResult> ScanRawManager::Query(const std::string& table,
                                          const QuerySpec& spec,
                                          obs::ExplainReport* explain) {
  auto meta = catalog_.GetTable(table);
  if (!meta.ok()) return meta.status();

  ScanRaw* op = nullptr;
  // The retired heap scan's log and progress callback.
  obs::QueryLog* query_log = nullptr;
  std::function<void(const obs::QueryProgress&)> progress_callback;
  {
    MutexLock lock(mu_);
    auto opt_it = options_.find(table);
    if (opt_it != options_.end()) {
      query_log = opt_it->second.query_log;
      progress_callback = opt_it->second.progress_callback;
    }
    auto it = operators_.find(table);
    if (it != operators_.end()) {
      // Retire the operator once the whole raw file is in the database and
      // its background writes have drained (§3.3: "Whenever it loaded the
      // entire raw file").
      if (meta->FullyLoaded()) {
        it->second->WaitForWrites();
        operators_.erase(it);
      } else {
        op = it->second.get();
      }
    } else if (!meta->FullyLoaded()) {
      if (opt_it == options_.end()) {
        return Status::Internal("no ScanRaw options for table " + table);
      }
      ScanRawOptions op_options = opt_it->second;
      if (op_options.telemetry == nullptr) {
        op_options.telemetry = &telemetry_;
      }
      // Derive the sidecar path from the last catalog save/load so the
      // after-cold-scan hook can persist without waiting for SaveCatalog.
      if (op_options.persist_positional_maps &&
          op_options.posmap_sidecar_path.empty() &&
          !posmap_base_path_.empty()) {
        op_options.posmap_sidecar_path =
            PosmapSidecarPath(posmap_base_path_, table);
      }
      auto created = std::make_unique<ScanRaw>(
          table, &catalog_, storage_.get(), &arbiter_, limiter_.get(),
          op_options);
      op = created.get();
      // Consume the sidecar staged by LoadCatalog (if any). Prepopulate
      // validates the dialect against the operator's live TokenizeOptions
      // and refuses a mismatched sidecar wholesale — those maps were built
      // under different delimiter/quote rules and must be rebuilt.
      auto pending = pending_posmaps_.find(table);
      if (pending != pending_posmaps_.end()) {
        const size_t staged_count = pending->second.entries.size();
        const size_t inserted = op->PrepopulatePositionalMaps(
            pending->second.dialect, std::move(pending->second.entries));
        pending_posmaps_.erase(pending);
        obs::MetricsRegistry& registry = telemetry_.metrics();
        if (inserted > 0) {
          registry.GetCounter("scanraw.posmap.loaded_from_disk")
              ->Add(inserted);
        } else if (staged_count > 0) {
          ++last_recovery_.posmaps_dropped;
          registry.GetCounter("recovery.posmap_dropped")->Add(1);
          last_recovery_.details.push_back(
              "posmap " + table +
              ": dropped sidecar: dialect mismatch with attached options");
        }
      }
      operators_.emplace(table, std::move(created));
    }
  }

  if (op != nullptr) return op->ExecuteQuery(spec, explain);

  // Fully loaded: plain database processing through the heap scan. Like
  // ExecuteQuery, it fills a report for EXPLAIN or for the query log.
  static constexpr char kPolicy[] = "heap-scan (retired)";
  obs::ExplainReport local_report;
  obs::ExplainReport* report =
      explain != nullptr ? explain
                         : (query_log != nullptr ? &local_report : nullptr);
  const double start = RealClock::Instance()->NowSeconds();
  // No pipeline runs here, so there is nothing to sample, but the query
  // reports progress: once at the start and once at the end, where a clean
  // scan is complete over the chunks it scanned plus those it skipped.
  obs::QueryProgress progress;
  if (progress_callback) {
    progress.chunks_total = meta->chunks.size();
    for (const ChunkMetadata& c : meta->chunks) {
      progress.bytes_total += c.raw_size;
    }
    progress_callback(progress);
  }
  obs::SpanProfiler profiler;
  obs::SpanProfiler* spans = report != nullptr ? &profiler : nullptr;
  HeapScanStream stream(*meta, storage_.get(), spec.RequiredColumns(),
                        spec.predicate.range, spans);
  stream.scan().BindMetrics(
      telemetry_.metrics().GetCounter("heapscan.chunks_scanned"),
      telemetry_.metrics().GetCounter("heapscan.chunks_skipped"));
  auto result = RunQuery(spec, &stream, spans);
  if (progress_callback) {
    progress.elapsed_seconds = RealClock::Instance()->NowSeconds() - start;
    progress.chunks_delivered =
        stream.scan().chunks_scanned() + stream.scan().chunks_skipped();
    if (result.ok()) {
      progress.bytes_processed = progress.bytes_total;
      if (progress.elapsed_seconds > 0) {
        progress.throughput_bps =
            static_cast<double>(progress.bytes_total) /
            progress.elapsed_seconds;
      }
      progress.fraction = 1.0;
      progress.eta_seconds = 0;
      progress.complete = true;
    }
    progress_callback(progress);
  }
  if (!result.ok()) {
    LogQueryEvent(query_log, table, kPolicy, /*advisor_used=*/false, spec,
                  result.status(), RealClock::Instance()->NowSeconds() - start,
                  nullptr, nullptr, 0);
    return result;
  }
  if (report != nullptr) {
    profiler.End();
    report->table = table;
    report->policy = kPolicy;
    report->workers = 1;
    report->FillFromProfile(profiler.Aggregate());
    report->chunks_from_db = stream.scan().chunks_scanned();
    report->chunks_skipped = stream.scan().chunks_skipped();
    report->loaded_fraction_before = 1.0;
    report->loaded_fraction_after = 1.0;
    LogQueryEvent(query_log, table, kPolicy, /*advisor_used=*/false, spec,
                  Status::OK(), report->wall_seconds, report, &*result, 0);
  }
  return result;
}

}  // namespace scanraw
