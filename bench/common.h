// Shared helpers for the per-figure benchmark binaries.
//
// Every binary prints the rows/series of one table or figure of the paper.
// Defaults are laptop-scale (the repro target is the *shape* of each
// result, not absolute numbers); two environment variables rescale runs:
//
//   ALEX_BENCH_SCALE    multiplies all key counts (default 1.0)
//   ALEX_BENCH_SECONDS  seconds per timed workload run (default 0.5)
//
// Every binary also accepts `--quick`: a CI smoke mode that shrinks key
// counts and time budgets so the run finishes in seconds (see
// ParseBenchArgs). Quick runs validate that the bench executes end-to-end,
// not that its numbers are meaningful.
//
// Machine-readable output: `--csv PATH` / `--json PATH` make a binary dump
// its result rows (those it feeds a ResultSink) as a CSV table or a JSON
// object {"rows": [...], "metrics": {...}} whose "metrics" member embeds
// the process-wide obs::MetricsRegistry snapshot, so multicore runners can
// record real scaling curves *and* the internals that produced them as
// artifacts. `--threads N` sets the worker count for the concurrency
// benches (overrides ALEX_BENCH_THREADS). `--prom PATH` additionally dumps
// a Prometheus text-exposition sample of the registry (and turns the
// runtime obs flag on, since an all-zero scrape is useless). `--trace PATH`
// writes the slow-op ring and event journal as a chrome://tracing JSON
// document; `--health PATH` writes the latest HealthMonitor report (both
// also force the obs flag on).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "datasets/dataset.h"
#include "obs/health.h"
#include "obs/inspect.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "wal/wal_format.h"
#include "workloads/workload.h"

namespace alex::bench {

/// True after ParseBenchArgs saw `--quick`.
inline bool g_quick_mode = false;
/// Value of `--threads N`; 0 when absent.
inline size_t g_threads_flag = 0;
/// Paths from `--csv PATH` / `--json PATH` / `--prom PATH`; null when
/// absent.
inline const char* g_csv_path = nullptr;
inline const char* g_json_path = nullptr;
inline const char* g_prom_path = nullptr;
/// Paths from `--trace PATH` / `--health PATH`; null when absent.
inline const char* g_trace_path = nullptr;
inline const char* g_health_path = nullptr;

/// Parses the shared bench flags. Call first thing in main(). Unknown
/// arguments are ignored so binaries can layer their own flags on top.
inline void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick_mode = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const int v = std::atoi(argv[++i]);
      if (v > 0) g_threads_flag = static_cast<size_t>(v);
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      g_csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      g_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      g_prom_path = argv[++i];
      obs::SetEnabled(true);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      g_trace_path = argv[++i];
      obs::SetEnabled(true);
    } else if (std::strcmp(argv[i], "--health") == 0 && i + 1 < argc) {
      g_health_path = argv[++i];
      obs::SetEnabled(true);
    }
  }
}

/// Worker-thread count: `--threads` beats ALEX_BENCH_THREADS beats
/// `fallback`.
inline size_t BenchThreads(size_t fallback = 16) {
  if (g_threads_flag > 0) return g_threads_flag;
  const char* s = std::getenv("ALEX_BENCH_THREADS");
  if (s != nullptr && std::atoi(s) > 0) {
    return static_cast<size_t>(std::atoi(s));
  }
  return fallback;
}

/// Collects result rows (ordered key → value pairs, all stringified) and
/// writes them wherever `--csv` / `--json` point. Columns come from the
/// first row; every row of one sink should share the same keys.
class ResultSink {
 public:
  using Row = std::vector<std::pair<std::string, std::string>>;

  void Add(Row row) { rows_.push_back(std::move(row)); }

  /// Formats a double with enough digits for post-processing.
  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  /// RFC-4180 quoting: a field containing a comma, quote, CR or LF is
  /// wrapped in double quotes with embedded quotes doubled, so labels
  /// like "sharded,n=8" cannot corrupt the CSV table.
  static std::string CsvField(const std::string& s) {
    if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
    return out;
  }

  /// JSON string escaping for keys and non-numeric values.
  static std::string JsonEscape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  /// Writes the requested machine-readable outputs, if any.
  void Flush() const {
    if (g_csv_path != nullptr) WriteCsv(g_csv_path);
    if (g_json_path != nullptr) WriteJson(g_json_path);
    if (g_prom_path != nullptr) WritePrometheus(g_prom_path);
    if (g_trace_path != nullptr) WriteTrace(g_trace_path);
    if (g_health_path != nullptr) WriteHealth(g_health_path);
  }

  /// Dumps the slow-op ring + event journal as chrome://tracing JSON.
  static void WriteTrace(const char* path) {
    if (obs::WriteChromeTrace(path)) {
      std::printf("wrote chrome trace to %s\n", path);
    } else {
      std::printf("FAILED to write chrome trace to %s\n", path);
    }
  }

  /// Dumps the latest health report (taking a final sample so a bench
  /// that never started the sampler thread still gets a real verdict).
  static void WriteHealth(const char* path) {
    obs::HealthMonitor::Global().SampleNow();
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    const std::string report = obs::HealthMonitor::Global().ReportJson();
    std::fwrite(report.data(), 1, report.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote health report to %s\n", path);
  }

  /// Dumps the registry as Prometheus text exposition (0.0.4).
  static void WritePrometheus(const char* path) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    const std::string text =
        obs::MetricsRegistry::Global().SnapshotPrometheus();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote metrics sample to %s\n", path);
  }

  void WriteCsv(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr || rows_.empty()) {
      if (f != nullptr) std::fclose(f);
      return;
    }
    for (size_t c = 0; c < rows_.front().size(); ++c) {
      std::fprintf(f, "%s%s", c == 0 ? "" : ",",
                   CsvField(rows_.front()[c].first).c_str());
    }
    std::fputc('\n', f);
    for (const Row& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        std::fprintf(f, "%s%s", c == 0 ? "" : ",",
                     CsvField(row[c].second).c_str());
      }
      std::fputc('\n', f);
    }
    std::fclose(f);
    std::printf("wrote %zu rows to %s\n", rows_.size(), path);
  }

  void WriteJson(const char* path) const {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) return;
    std::fputs("{\n\"rows\": [\n", f);
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fputs("  {", f);
      for (size_t c = 0; c < rows_[r].size(); ++c) {
        const auto& [key, value] = rows_[r][c];
        std::fprintf(f, "%s\"%s\": ", c == 0 ? "" : ", ",
                     JsonEscape(key).c_str());
        if (LooksNumeric(value)) {
          std::fprintf(f, "%s", value.c_str());
        } else {
          std::fprintf(f, "\"%s\"", JsonEscape(value).c_str());
        }
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    // Every artifact embeds the registry snapshot: all-zero when the
    // obs flag stayed off, the run's internals when it was on.
    std::fputs("],\n\"metrics\": ", f);
    const std::string metrics =
        obs::MetricsRegistry::Global().SnapshotJson();
    std::fwrite(metrics.data(), 1, metrics.size(), f);
    // Plus the health verdict and the journal tail, so an artifact is a
    // self-contained diagnosis: what ran, how it scored, what happened.
    std::fputs(",\n\"health\": ", f);
    const std::string health = obs::HealthMonitor::Global().ReportJson();
    std::fwrite(health.data(), 1, health.size(), f);
    std::fputs(",\n\"journal\": ", f);
    const std::string journal = obs::GlobalJournal().SnapshotJson(64);
    std::fwrite(journal.data(), 1, journal.size(), f);
    std::fputs("\n}\n", f);
    std::fclose(f);
    std::printf("wrote %zu rows to %s\n", rows_.size(), path);
  }

 private:
  static bool LooksNumeric(const std::string& s) {
    if (s.empty()) return false;
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  std::vector<Row> rows_;
};

inline double EnvScale() {
  double scale = 1.0;
  const char* s = std::getenv("ALEX_BENCH_SCALE");
  if (s != nullptr && std::atof(s) > 0.0) scale = std::atof(s);
  return g_quick_mode ? scale * 0.05 : scale;
}

inline double EnvSeconds() {
  double seconds = 0.5;
  const char* s = std::getenv("ALEX_BENCH_SECONDS");
  if (s != nullptr && std::atof(s) > 0.0) seconds = std::atof(s);
  return g_quick_mode && seconds > 0.05 ? 0.05 : seconds;
}

/// Scales a default key count by ALEX_BENCH_SCALE.
inline size_t ScaledKeys(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * EnvScale());
}

/// Millions-of-ops-per-second with 3 significant digits.
inline std::string Mops(double ops_per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ops_per_sec / 1e6);
  return buf;
}

/// Human-readable byte count.
inline std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB",
                  static_cast<double>(bytes) / (1024.0 * 1024 * 1024));
  } else if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  }
  return buf;
}

/// The paper's default ALEX configs per experiment family (§5.1-5.2).
inline core::Config GaSrmiConfig() {
  core::Config config;
  config.layout = core::NodeLayout::kGappedArray;
  config.rmi_mode = core::RmiMode::kStatic;
  return config;
}

inline core::Config GaArmiConfig(bool splitting = false) {
  core::Config config;
  config.layout = core::NodeLayout::kGappedArray;
  config.rmi_mode = core::RmiMode::kAdaptive;
  config.allow_splitting = splitting;
  return config;
}

inline core::Config PmaSrmiConfig() {
  core::Config config;
  config.layout = core::NodeLayout::kPackedMemoryArray;
  config.rmi_mode = core::RmiMode::kStatic;
  return config;
}

inline core::Config PmaArmiConfig(bool splitting = false) {
  core::Config config;
  config.layout = core::NodeLayout::kPackedMemoryArray;
  config.rmi_mode = core::RmiMode::kAdaptive;
  config.allow_splitting = splitting;
  return config;
}

/// Header for a markdown table.
inline void PrintRule(const char* title) {
  std::printf("\n### %s\n\n", title);
}

/// Removes the files a durable ShardedAlex left at `prefix`: its
/// manifest, segments and WAL logs (`<base>.manifest*`, `<base>.seg-*`,
/// `<base>.wal-*`), and nothing else that shares the prefix.
inline void RemovePrefixFiles(const std::string& prefix) {
  std::string dir, base;
  wal::SplitPrefixPath(prefix, &dir, &base);
  std::vector<std::string> names;
  if (!wal::ListDirectory(dir, &names)) return;
  for (const std::string& name : names) {
    for (const char* kind : {".manifest", ".seg-", ".wal-"}) {
      if (name.compare(0, base.size(), base) == 0 &&
          name.compare(base.size(), std::strlen(kind), kind) == 0) {
        std::remove((dir + "/" + name).c_str());
        break;
      }
    }
  }
}

}  // namespace alex::bench
