// Metrics registry: counters, gauges and fixed-bucket histograms.
//
// Every instrumented layer registers metrics under the naming scheme
// `griphon_<layer>_<name>` (lower-case, underscore-separated; duration
// histograms end in `_seconds`). The registry exports two formats:
//  * Prometheus text exposition (to_prometheus) for scraping/diffing, and
//  * the bench emit_json.hpp row format (to_json_rows) so telemetry feeds
//    the same BENCH_*.json perf trajectory the benches write.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime, so hot paths register once and increment through a
// cached pointer (CachedCounter, CachedHistogram, KeyedCounters and
// CachedLookup below do the caching). A component whose deployment has no
// telemetry attached never touches the registry at all — that is the
// no-sink fast path.
//
// Metrics may carry labels (e.g. {customer="3"}): each distinct label set
// is its own independently incremented series under the family name. The
// naming scheme applies to the family name; labels are free-form key/value
// pairs rendered in Prometheus exposition syntax.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace griphon::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram. Bounds are ascending upper bounds; observations
/// above the last bound land in an implicit +Inf overflow bucket.
/// Quantiles are estimated by linear interpolation inside the bucket that
/// holds the target rank (0 is assumed to be the lower edge of the first
/// bucket — observations are non-negative durations/sizes).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// q in [0, 1]. Returns 0 on an empty histogram; ranks falling in the
  /// overflow bucket are clamped to the last finite bound.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// Per-bucket (non-cumulative) count; index bounds_.size() = overflow.
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

 private:
  const std::vector<double> bounds_;  ///< immutable after construction
  // bounds_.size() + 1 entries (overflow last).
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Default buckets for duration histograms, in seconds: 1 ms .. 300 s,
/// dense through the paper's 60-70 s setup band.
[[nodiscard]] std::vector<double> duration_buckets();

/// One metric label, e.g. {"customer", "3"}. A label set identifies a
/// series within a metric family; it is canonicalized (sorted by key) at
/// registration so argument order never splits a series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Cached handles are keyed by identity(); a copy would share it.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or fetch) a metric series. Registration is idempotent: the
  /// same (name, labels) always returns the same handle. Registering a
  /// name twice with a different metric kind throws std::logic_error.
  /// Handles stay valid for the registry's lifetime (series are
  /// unique_ptr-owned, so rehash/rebalance never moves them).
  Counter* counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge* gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram* histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds = duration_buckets(),
                       const Labels& labels = {});

  /// Number of registered series (each label set counts separately).
  [[nodiscard]] std::size_t size() const noexcept { return series_; }
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const Labels& labels = {}) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name,
                                        const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name, const Labels& labels = {}) const;
  /// Every series of a counter family, in label order (empty if the
  /// family is absent or not a counter family).
  [[nodiscard]] std::vector<const Counter*> counter_family(
      const std::string& name) const;
  /// Calls so far that resolved a metric by name: counter(), gauge(),
  /// histogram(), find_*() and counter_family(). Armed hot paths go
  /// through cached handles instead, and tests hold them to it.
  [[nodiscard]] std::uint64_t by_name_calls() const noexcept {
    return by_name_calls_;
  }
  /// What cached handles key on. A cache holds a copy, which keeps the
  /// token alive, so no later registry can be given the same token, even
  /// one built at the same address; the token never reaches any output.
  using Identity = std::shared_ptr<const void>;
  [[nodiscard]] const Identity& identity() const noexcept {
    return identity_;
  }

  /// Prometheus text exposition format (# HELP / # TYPE / samples).
  [[nodiscard]] std::string to_prometheus() const;
  /// emit_json.hpp row format: a JSON array of {bench, metric, value, unit}
  /// rows. Histograms expand to _count/_sum/_p50/_p95/_p99 rows.
  [[nodiscard]] std::string to_json_rows(const std::string& bench) const;

  /// True iff `name` matches the scheme griphon_<layer>_<name>: lower-case
  /// [a-z0-9_], `griphon_` prefix, at least three `_`-separated tokens,
  /// no empty token.
  [[nodiscard]] static bool name_ok(const std::string& name) noexcept;
  /// Registered names violating the scheme (empty = all conform).
  [[nodiscard]] std::vector<std::string> invalid_names() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Sample {
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Series keyed by rendered label block ("" = unlabeled).
    std::map<std::string, Sample> samples;
  };

  /// Canonical `{k="v",...}` block (sorted by key; "" for no labels).
  [[nodiscard]] static std::string label_key(const Labels& labels);
  Family& family_for(const std::string& name, const std::string& help,
                     Kind kind);
  [[nodiscard]] const Sample* find_sample(const std::string& name,
                                          const Labels& labels) const;

  // Ordered map: exposition output is sorted and therefore diffable.
  std::map<std::string, Family> families_;
  std::size_t series_ = 0;
  Identity identity_ = std::make_shared<char>();
  mutable std::uint64_t by_name_calls_ = 0;
};

/// One unlabeled counter, gauge or histogram, registered by name on its
/// first use and reached through the cached handle after that; used with
/// another registry it registers there. Registering on first use (not up
/// front) keeps the exposition free of series nothing has counted.
/// Histograms take duration_buckets() unless given their own bounds.
template <typename Metric>
class Cached {
 public:
  Cached(const char* name, const char* help) noexcept
      : name_(name), help_(help) {}
  /// `bounds` must outlive the handle (a constexpr array, say).
  Cached(const char* name, const char* help,
         std::span<const double> bounds) noexcept
    requires std::is_same_v<Metric, Histogram>
      : name_(name), help_(help), bounds_(bounds) {}
  Metric& in(MetricsRegistry& m) {
    if (m.identity() != registry_) {
      if constexpr (std::is_same_v<Metric, Counter>)
        handle_ = m.counter(name_, help_);
      else if constexpr (std::is_same_v<Metric, Gauge>)
        handle_ = m.gauge(name_, help_);
      else if (bounds_.empty())
        handle_ = m.histogram(name_, help_);
      else
        handle_ = m.histogram(name_, help_, {bounds_.begin(), bounds_.end()});
      registry_ = m.identity();
    }
    return *handle_;
  }

 private:
  const char* name_;
  const char* help_;
  std::span<const double> bounds_;
  MetricsRegistry::Identity registry_;  ///< null: no registry seen yet
  Metric* handle_ = nullptr;
};
using CachedCounter = Cached<Counter>;
using CachedGauge = Cached<Gauge>;
using CachedHistogram = Cached<Histogram>;

/// Cached series of one labeled counter family, one per integer key (a
/// customer id, say). A key's first use registers its series by name with
/// the labels `labels_of()` builds; later uses cost one integer hash.
class KeyedCounters {
 public:
  KeyedCounters(const char* name, const char* help) noexcept
      : name_(name), help_(help) {}

  template <typename LabelsOf>
  Counter& in(MetricsRegistry& m, std::uint64_t key, LabelsOf&& labels_of) {
    if (m.identity() != registry_) {
      series_.clear();
      registry_ = m.identity();
    }
    auto [it, fresh] = series_.try_emplace(key, nullptr);
    if (fresh) it->second = m.counter(name_, help_, labels_of());
    return *it->second;
  }
  /// The common case: the key is the value of the family's one label.
  Counter& in(MetricsRegistry& m, const char* label, std::uint64_t key) {
    return in(m, key, [&] { return Labels{{label, std::to_string(key)}}; });
  }

 private:
  const char* name_;
  const char* help_;
  MetricsRegistry::Identity registry_;
  std::unordered_map<std::uint64_t, Counter*> series_;
};

/// A by-name lookup whose answer is kept until it could have changed: it
/// reruns only against another registry or after a series was
/// registered. Handles never move and series are never removed, so an
/// unchanged registry gives the same answer. For metrics read on every
/// tick of a sampler or monitor, where the metric may not exist yet. `T`
/// picks the lookup: `const Counter*` (find_counter), `const Gauge*`
/// (find_gauge), `const Histogram*` (find_histogram) or
/// `std::vector<const Counter*>` (counter_family).
template <typename T>
class CachedLookup {
 public:
  explicit CachedLookup(std::string name) : name_(std::move(name)) {}

  const T& operator()(const MetricsRegistry& m) {
    if (m.identity() != registry_ || m.size() != size_) {
      value_ = find(m);
      registry_ = m.identity();
      size_ = m.size();
    }
    return value_;
  }

 private:
  T find(const MetricsRegistry& m) const {
    if constexpr (std::is_same_v<T, const Counter*>)
      return m.find_counter(name_);
    else if constexpr (std::is_same_v<T, const Gauge*>)
      return m.find_gauge(name_);
    else if constexpr (std::is_same_v<T, const Histogram*>)
      return m.find_histogram(name_);
    else
      return m.counter_family(name_);
  }

  std::string name_;
  MetricsRegistry::Identity registry_;
  std::size_t size_ = 0;
  T value_{};
};

}  // namespace griphon::telemetry
