// Metrics registry: counters, gauges and fixed-bucket histograms addressed
// by interned name handles.
//
// Registration (name interning) is the cold path — it does a hash lookup and
// may allocate. The returned handle is a plain index, so hot-path updates are
// one bounds-checked vector access with no hashing and no allocation.
// Registering the same name twice returns the same handle (idempotent),
// which is what lets merge() unify registries built independently.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/contracts.hpp"
#include "stats/histogram.hpp"

namespace ssq::obs {

struct CounterId { std::uint32_t idx = 0; };
struct GaugeId { std::uint32_t idx = 0; };
struct HistogramId { std::uint32_t idx = 0; };

class MetricsRegistry {
 public:
  // ---- registration (cold; idempotent per name) ----
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  /// Fixed-bucket histogram: `num_bins` bins of `bin_width` plus an overflow
  /// bin (stats::Histogram semantics). Re-registering a name requires the
  /// same geometry.
  HistogramId histogram(std::string_view name, double bin_width,
                        std::size_t num_bins);

  // ---- hot-path updates ----
  void add(CounterId id, std::uint64_t delta = 1) noexcept {
    SSQ_EXPECT(id.idx < counters_.size());
    counters_[id.idx].value += delta;
  }
  void set(GaugeId id, double value) noexcept {
    SSQ_EXPECT(id.idx < gauges_.size());
    gauges_[id.idx].value = value;
  }
  void observe(HistogramId id, double value) {
    SSQ_EXPECT(id.idx < histograms_.size());
    histograms_[id.idx].hist.add(value);
  }

  // ---- introspection ----
  [[nodiscard]] std::uint64_t value(CounterId id) const {
    SSQ_EXPECT(id.idx < counters_.size());
    return counters_[id.idx].value;
  }
  [[nodiscard]] double value(GaugeId id) const {
    SSQ_EXPECT(id.idx < gauges_.size());
    return gauges_[id.idx].value;
  }
  [[nodiscard]] const stats::Histogram& data(HistogramId id) const {
    SSQ_EXPECT(id.idx < histograms_.size());
    return histograms_[id.idx].hist;
  }
  /// Counter value by name; 0 when the name was never registered.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::size_t num_counters() const noexcept {
    return counters_.size();
  }

  /// Folds `other` into this registry, matching metrics by name: counters
  /// add, gauges take the other's latest value, histograms merge bin-wise
  /// (geometries must match). Metrics unknown here are created.
  void merge(const MetricsRegistry& other);

  /// Writes the whole registry as one JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{...}}}
  void write_json(std::ostream& os) const;

 private:
  struct Counter { std::string name; std::uint64_t value = 0; };
  struct Gauge { std::string name; double value = 0.0; };
  struct Hist {
    std::string name;
    stats::Histogram hist;
  };

  std::unordered_map<std::string, std::uint32_t> counter_index_;
  std::unordered_map<std::string, std::uint32_t> gauge_index_;
  std::unordered_map<std::string, std::uint32_t> histogram_index_;
  std::vector<Counter> counters_;
  std::vector<Gauge> gauges_;
  std::vector<Hist> histograms_;
};

}  // namespace ssq::obs
