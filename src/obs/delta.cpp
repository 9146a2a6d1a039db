#include "obs/delta.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>

namespace lptsp::obs {

namespace {

/// Clamped unsigned difference: a counter that went backwards (process
/// restart between scrapes) reads as "no progress", not a huge wrap.
std::uint64_t monotone_delta(std::uint64_t older, std::uint64_t newer) {
  return newer >= older ? newer - older : 0;
}

template <typename Entry>
const Entry* find_by_name(const std::vector<Entry>& entries, const std::string& name) {
  for (const Entry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

SnapshotDelta SnapshotDelta::between(const MetricsSnapshot& older, const MetricsSnapshot& newer) {
  SnapshotDelta delta;
  const std::uint64_t interval_ns = monotone_delta(older.timestamp_ns, newer.timestamp_ns);
  // An equal-time pair (or an unstamped legacy snapshot) must divide by
  // something: one nanosecond turns every rate into "delta per ~0s",
  // which the caller sees as the raw delta blown up — visible, not NaN.
  delta.interval_seconds = static_cast<double>(std::max<std::uint64_t>(interval_ns, 1)) / 1e9;
  delta.uptime_ns = newer.uptime_ns;

  delta.counters.reserve(newer.counters.size());
  for (const MetricsSnapshot::CounterValue& entry : newer.counters) {
    const auto* before = find_by_name(older.counters, entry.name);
    if (before == nullptr) continue;  // registry changed shape mid-watch
    CounterRate rate;
    rate.name = entry.name;
    rate.delta = monotone_delta(before->value, entry.value);
    rate.per_second = static_cast<double>(rate.delta) / delta.interval_seconds;
    delta.counters.push_back(std::move(rate));
  }

  delta.gauges.reserve(newer.gauges.size());
  for (const MetricsSnapshot::GaugeValue& entry : newer.gauges) {
    const auto* before = find_by_name(older.gauges, entry.name);
    if (before == nullptr) continue;
    delta.gauges.push_back({entry.name, entry.value, entry.value - before->value});
  }

  delta.histograms.reserve(newer.histograms.size());
  for (const MetricsSnapshot::HistogramValue& entry : newer.histograms) {
    const auto* before = find_by_name(older.histograms, entry.name);
    if (before == nullptr) continue;
    HistogramDelta hist_delta;
    hist_delta.name = entry.name;
    HistogramSnapshot& diff = hist_delta.hist;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      const auto index = static_cast<std::size_t>(b);
      diff.counts[index] = monotone_delta(before->hist.counts[index], entry.hist.counts[index]);
      diff.count += diff.counts[index];
    }
    diff.sum = monotone_delta(before->hist.sum, entry.hist.sum);
    // The interval's true max is not recoverable from cumulative
    // snapshots; the lifetime max is the tightest safe cap for the
    // interpolated interval quantiles.
    diff.max = entry.hist.max;
    hist_delta.per_second = static_cast<double>(diff.count) / delta.interval_seconds;
    delta.histograms.push_back(std::move(hist_delta));
  }
  return delta;
}

namespace {

void append_padded(std::string& out, const std::string& text, std::size_t width) {
  out += text;
  for (std::size_t i = text.size(); i < width; ++i) out.push_back(' ');
}

std::string fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string right_aligned(std::string text, std::size_t width) {
  return text.size() >= width ? text : std::string(width - text.size(), ' ') + std::move(text);
}

}  // namespace

std::string SnapshotDelta::to_text() const {
  std::size_t name_width = 8;
  for (const CounterRate& entry : counters) name_width = std::max(name_width, entry.name.size());
  for (const GaugeLevel& entry : gauges) name_width = std::max(name_width, entry.name.size());
  for (const HistogramDelta& entry : histograms) {
    name_width = std::max(name_width, entry.name.size());
  }
  name_width += 2;

  std::string out = "interval " + fixed(interval_seconds, 2) + "s, uptime " +
                    fixed(static_cast<double>(uptime_ns) / 1e9, 1) + "s\n";
  if (!counters.empty()) {
    out += "counters (rate):\n";
    for (const CounterRate& entry : counters) {
      out += "  ";
      append_padded(out, entry.name, name_width);
      out += right_aligned(fixed(entry.per_second, 1) + "/s", 14);
      // += rather than "+" + rvalue: GCC 12 flags the latter with a
      // -Wrestrict false positive (PR105651).
      std::string delta = "+";
      delta += std::to_string(entry.delta);
      out += right_aligned(delta, 12);
      out.push_back('\n');
    }
  }
  if (!gauges.empty()) {
    out += "gauges (level):\n";
    for (const GaugeLevel& entry : gauges) {
      out += "  ";
      append_padded(out, entry.name, name_width);
      out += right_aligned(std::to_string(entry.value), 14);
      const std::string sign = entry.delta >= 0 ? "+" : "";
      out += right_aligned(sign + std::to_string(entry.delta), 12);
      out.push_back('\n');
    }
  }
  if (!histograms.empty()) {
    out += "histograms (interval, ns):\n  ";
    append_padded(out, "", name_width);
    out += "     rate/s          p50          p90          p99\n";
    for (const HistogramDelta& entry : histograms) {
      out += "  ";
      append_padded(out, entry.name, name_width);
      out += right_aligned(fixed(entry.per_second, 1), 11);
      out += right_aligned(std::to_string(entry.hist.quantile(0.50)), 13);
      out += right_aligned(std::to_string(entry.hist.quantile(0.90)), 13);
      out += right_aligned(std::to_string(entry.hist.quantile(0.99)), 13);
      out.push_back('\n');
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus exposition -> MetricsSnapshot
// ---------------------------------------------------------------------------

namespace {

constexpr const char kPrefix[] = "lptsp_";
constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;

/// Map a `le` ceiling back to its log2 bucket index: bucket_ceiling(b)
/// is 0 for b = 0 and 2^b - 1 otherwise, so le + 1 is a power of two
/// whose bit_width is b + 1. Returns -1 for a ceiling no bucket owns.
int bucket_of_ceiling(std::uint64_t le) {
  if (le == 0) return 0;
  if (!std::has_single_bit(le + 1)) return -1;
  const int b = std::bit_width(le + 1) - 1;
  return b < HistogramSnapshot::kBuckets ? b : -1;
}

struct ParsedLine {
  std::string name;             ///< metric name, "lptsp_" stripped
  std::string le;               ///< le label value, empty when unlabeled
  std::uint64_t value = 0;
  bool ok = false;
};

ParsedLine parse_sample_line(const std::string& line) {
  ParsedLine parsed;
  if (line.compare(0, kPrefixLen, kPrefix) != 0) return parsed;
  std::size_t pos = kPrefixLen;
  const std::size_t name_start = pos;
  while (pos < line.size() && line[pos] != ' ' && line[pos] != '{') ++pos;
  parsed.name = line.substr(name_start, pos - name_start);
  if (pos < line.size() && line[pos] == '{') {
    const std::size_t close = line.find('}', pos);
    if (close == std::string::npos) return parsed;
    const std::string labels = line.substr(pos + 1, close - pos - 1);
    constexpr const char kLe[] = "le=\"";
    const std::size_t le_pos = labels.find(kLe);
    if (le_pos != std::string::npos) {
      const std::size_t value_start = le_pos + sizeof(kLe) - 1;
      const std::size_t value_end = labels.find('"', value_start);
      if (value_end == std::string::npos) return parsed;
      parsed.le = labels.substr(value_start, value_end - value_start);
    }
    pos = close + 1;
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return parsed;
  // Histogram sums can exceed what strtod round-trips exactly, but every
  // value to_prometheus() emits is a decimal integer; parse as such.
  char* end = nullptr;
  parsed.value = std::strtoull(line.c_str() + pos, &end, 10);
  parsed.ok = end != nullptr && end != line.c_str() + pos;
  return parsed;
}

}  // namespace

std::optional<MetricsSnapshot> parse_prometheus(const std::string& text) {
  MetricsSnapshot snap;
  // name -> kind from the # TYPE lines; histogram series are keyed by
  // their base name (the _bucket/_sum/_count/_max suffixes are data).
  std::vector<std::pair<std::string, char>> kinds;  // 'c', 'g', 'h'
  bool saw_any = false;

  std::size_t line_start = 0;
  while (line_start <= text.size()) {
    const std::size_t line_end = std::min(text.find('\n', line_start), text.size());
    const std::string line = text.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty()) continue;

    if (line[0] == '#') {
      constexpr const char kType[] = "# TYPE lptsp_";
      if (line.compare(0, sizeof(kType) - 1, kType) == 0) {
        const std::size_t name_start = sizeof(kType) - 1;
        const std::size_t name_end = line.find(' ', name_start);
        if (name_end != std::string::npos) {
          const std::string name = line.substr(name_start, name_end - name_start);
          const std::string kind = line.substr(name_end + 1);
          if (kind == "counter") kinds.emplace_back(name, 'c');
          else if (kind == "gauge") kinds.emplace_back(name, 'g');
          else if (kind == "histogram") kinds.emplace_back(name, 'h');
        }
      }
      continue;
    }

    const ParsedLine parsed = parse_sample_line(line);
    if (!parsed.ok) continue;
    saw_any = true;

    if (parsed.name == "snapshot_timestamp_ns") {
      snap.timestamp_ns = parsed.value;
      continue;
    }
    if (parsed.name == "uptime_ns") {
      snap.uptime_ns = parsed.value;
      continue;
    }

    // Histogram series? Match the longest declared histogram base name.
    std::string base;
    std::string suffix;
    for (const auto& [declared, kind] : kinds) {
      if (kind != 'h') continue;
      if (parsed.name.size() > declared.size() &&
          parsed.name.compare(0, declared.size(), declared) == 0 &&
          parsed.name[declared.size()] == '_') {
        base = declared;
        suffix = parsed.name.substr(declared.size() + 1);
        break;
      }
    }
    if (!base.empty()) {
      MetricsSnapshot::HistogramValue* hist = nullptr;
      for (MetricsSnapshot::HistogramValue& entry : snap.histograms) {
        if (entry.name == base) {
          hist = &entry;
          break;
        }
      }
      if (hist == nullptr) {
        snap.histograms.push_back({base, {}});
        hist = &snap.histograms.back();
      }
      if (suffix == "bucket") {
        if (parsed.le == "+Inf") {
          hist->hist.count = parsed.value;
        } else {
          const int b = bucket_of_ceiling(std::strtoull(parsed.le.c_str(), nullptr, 10));
          // Cumulative-to-bucket conversion happens after the loop; stash
          // the cumulative value for now.
          if (b >= 0) hist->hist.counts[static_cast<std::size_t>(b)] = parsed.value;
        }
      } else if (suffix == "sum") {
        hist->hist.sum = parsed.value;
      } else if (suffix == "max") {
        hist->hist.max = parsed.value;
      }
      // "count" duplicates the +Inf bucket; nothing extra to record.
      continue;
    }

    char kind = 0;
    for (const auto& [declared, declared_kind] : kinds) {
      if (declared == parsed.name) {
        kind = declared_kind;
        break;
      }
    }
    if (kind == 'c') {
      snap.counters.push_back({parsed.name, parsed.value});
    } else if (kind == 'g') {
      snap.gauges.push_back({parsed.name, static_cast<std::int64_t>(parsed.value)});
    }
  }

  if (!saw_any) return std::nullopt;

  // The exposition's buckets are cumulative; the snapshot's are not.
  for (MetricsSnapshot::HistogramValue& entry : snap.histograms) {
    std::uint64_t previous = 0;
    for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      const auto index = static_cast<std::size_t>(b);
      const std::uint64_t cumulative = entry.hist.counts[index];
      if (cumulative == 0) continue;  // unemitted buckets stay zero
      entry.hist.counts[index] = cumulative - previous;
      previous = cumulative;
    }
  }

  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

}  // namespace lptsp::obs
