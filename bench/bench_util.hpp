// Shared helpers for the benchmark harness: flag parsing and paper-style
// table printing. Each bench binary regenerates one table or figure of the
// paper's evaluation section (see DESIGN.md §4 for the index).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace mlr::bench {

/// Minimal --flag value parser.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  [[nodiscard]] i64 get_i64(const char* flag, i64 def) const {
    const char* v = find(flag);
    return v != nullptr ? std::atoll(v) : def;
  }
  [[nodiscard]] double get_double(const char* flag, double def) const {
    const char* v = find(flag);
    return v != nullptr ? std::atof(v) : def;
  }
  [[nodiscard]] const char* get_str(const char* flag, const char* def) const {
    const char* v = find(flag);
    return v != nullptr ? v : def;
  }
  /// Engine worker threads (`--threads N`); negatives clamp to 0 (= share
  /// the process-global pool). One parse point for every bench.
  [[nodiscard]] unsigned threads() const {
    const i64 t = get_i64("--threads", 0);
    return t > 0 ? unsigned(t) : 0u;
  }
  /// Output path for the machine-readable result (`--json <path>`); null
  /// when not requested.
  [[nodiscard]] const char* json_path() const {
    return get_str("--json", nullptr);
  }
  [[nodiscard]] bool has(const char* flag) const {
    for (int i = 1; i < argc_; ++i)
      if (std::strcmp(argv_[i], flag) == 0) return true;
    return false;
  }

 private:
  [[nodiscard]] const char* find(const char* flag) const {
    for (int i = 1; i + 1 < argc_; ++i)
      if (std::strcmp(argv_[i], flag) == 0) return argv_[i + 1];
    return nullptr;
  }
  int argc_;
  char** argv_;
};

inline void header(const char* experiment, const char* paper_ref,
                   const char* expectation) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper reference : %s\n", paper_ref);
  std::printf("shape to match  : %s\n", expectation);
  std::printf("================================================================\n\n");
}

inline void footer(double wall_s) {
  std::printf("\n[host wall time: %.1f s]\n\n", wall_s);
}

/// Print a horizontal ASCII bar row: label, value, normalized bar.
inline void bar_row(const char* label, double value, double max_value,
                    const char* unit = "") {
  std::printf("  %-26s %10.3f %-3s |%s\n", label, value, unit,
              ascii_bar(max_value > 0 ? value / max_value : 0, 36).c_str());
}

// ---------------------------------------------------------------------------
// Machine-readable results (`--json <path>`): a minimal ordered JSON object
// writer so benches can emit their configuration, wall times and memo
// outcome counts as BENCH_*.json — the perf trajectory future PRs diff.
//
//   JsonObject j;
//   j.set("bench", "stage_scaling");
//   j.set("threads", i64(8));
//   auto& row = j.row("rows");           // append an object to array "rows"
//   row.set("barrier_s", 0.31);
//   write_json(path, j);                 // pretty-printed, trailing newline

class JsonObject {
 public:
  void set(const char* key, const std::string& v) { fields_.push_back({key, v}); }
  void set(const char* key, const char* v) { set(key, std::string(v)); }
  void set(const char* key, double v) { fields_.push_back({key, v}); }
  void set(const char* key, i64 v) { fields_.push_back({key, v}); }
  void set(const char* key, u64 v) { fields_.push_back({key, i64(v)}); }
  void set(const char* key, bool v) { fields_.push_back({key, v}); }
  /// Append one object to the array field `key` (created on first use) and
  /// return it for population. References stay valid (nodes are pointers).
  JsonObject& row(const char* key) {
    for (auto& f : fields_) {
      if (f.key == key && std::holds_alternative<Array>(f.value)) {
        auto& arr = std::get<Array>(f.value);
        arr.push_back(std::make_unique<JsonObject>());
        return *arr.back();
      }
    }
    fields_.push_back({key, Array{}});
    auto& arr = std::get<Array>(fields_.back().value);
    arr.push_back(std::make_unique<JsonObject>());
    return *arr.back();
  }

  void dump(std::string& out, int indent = 0) const {
    const std::string pad(std::size_t(indent) * 2, ' ');
    const std::string pad1(std::size_t(indent + 1) * 2, ' ');
    out += "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      const auto& f = fields_[i];
      out += pad1 + "\"" + escape(f.key) + "\": ";
      if (const auto* s = std::get_if<std::string>(&f.value)) {
        out += '"';
        out += escape(*s);
        out += '"';
      } else if (const auto* d = std::get_if<double>(&f.value)) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", *d);
        out += buf;
      } else if (const auto* n = std::get_if<i64>(&f.value)) {
        out += std::to_string(*n);
      } else if (const auto* b = std::get_if<bool>(&f.value)) {
        out += *b ? "true" : "false";
      } else if (const auto* arr = std::get_if<Array>(&f.value)) {
        out += "[";
        for (std::size_t r = 0; r < arr->size(); ++r) {
          out += (r == 0 ? "\n" : ",\n") + pad1 + "  ";
          (*arr)[r]->dump(out, indent + 2);
        }
        out += "\n" + pad1 + "]";
      }
      out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    out += pad + "}";
  }

 private:
  using Array = std::vector<std::unique_ptr<JsonObject>>;
  struct Field {
    std::string key;
    std::variant<std::string, double, i64, bool, Array> value;
  };
  static std::string escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }
  std::vector<Field> fields_;
};

/// Append an obs::MetricsSnapshot to the bench JSON as three row arrays
/// (obs_counters / obs_gauges / obs_histograms) — one shared shape for every
/// bench so the perf trajectory can diff instrument values across PRs.
/// Histogram rows carry the summary (count, sum, p50/p99), not the full
/// bucket vector; the full dump lives in MetricsSnapshot::to_json().
inline void append_obs(JsonObject& json, const obs::MetricsSnapshot& snap) {
  for (const auto& [name, v] : snap.counters) {
    auto& row = json.row("obs_counters");
    row.set("name", name);
    row.set("value", v);
  }
  for (const auto& [name, v] : snap.gauges) {
    auto& row = json.row("obs_gauges");
    row.set("name", name);
    row.set("value", v);
  }
  for (const auto& h : snap.histograms) {
    auto& row = json.row("obs_histograms");
    row.set("name", h.name);
    row.set("count", h.count);
    row.set("sum", h.sum);
    row.set("p50", h.quantile(0.5));
    row.set("p99", h.quantile(0.99));
  }
}

/// Write `obj` to `path` (no-op when path is null); returns success.
inline bool write_json(const char* path, const JsonObject& obj) {
  if (path == nullptr) return true;
  std::string text;
  obj.dump(text);
  text += "\n";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("[json written to %s]\n", path);
  return true;
}

}  // namespace mlr::bench
