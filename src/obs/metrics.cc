#include "src/obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>

#include "src/runtime/error.h"
#include "src/runtime/json.h"

namespace ldb {
namespace obs {

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

int Counter::ShardIndex() {
  static std::atomic<unsigned> next{0};
  thread_local int shard =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) % kShards);
  return shard;
}

void Histogram::Observe(double v, uint64_t exemplar_id) {
#if LDB_METRICS_ENABLED
  int idx = 0;
  double ub = 1;
  while (idx < kFiniteBuckets && v > ub) {
    ub *= 2;
    ++idx;
  }
  // idx == kFiniteBuckets means v exceeded the last finite bound (2^38).
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  double s = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(s, s + v, std::memory_order_relaxed)) {
  }
  double m = max_.load(std::memory_order_relaxed);
  while (m < v &&
         !max_.compare_exchange_weak(m, v, std::memory_order_relaxed)) {
  }
  if (exemplar_id != 0) {
    exemplar_val_[idx].store(v, std::memory_order_relaxed);
    exemplar_id_[idx].store(exemplar_id, std::memory_order_relaxed);
  }
#else
  (void)v;
  (void)exemplar_id;
#endif
}

std::pair<uint64_t, double> Histogram::BucketExemplar(int i) const {
  if (i < 0 || i >= kBuckets) return {0, 0};
  return {exemplar_id_[i].load(std::memory_order_relaxed),
          exemplar_val_[i].load(std::memory_order_relaxed)};
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::BucketUpperBound(int i) {
  if (i >= kFiniteBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i);
}

std::vector<uint64_t> Histogram::CumulativeCounts() const {
  std::vector<uint64_t> out(kBuckets);
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    cum += buckets_[i].load(std::memory_order_relaxed);
    out[static_cast<size_t>(i)] = cum;
  }
  return out;
}

double Histogram::Quantile(double q) const {
  std::vector<uint64_t> cum = CumulativeCounts();
  uint64_t total = cum.back();
  if (total == 0) return 0;
  auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  for (int i = 0; i < kBuckets; ++i) {
    if (cum[static_cast<size_t>(i)] >= rank) {
      return i < kFiniteBuckets ? BucketUpperBound(i) : Max();
    }
  }
  return Max();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

std::string SeriesKey(const std::string& name,
                      const std::map<std::string, std::string>& labels) {
  std::string key = name;
  key += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += '=';
    key += v;
  }
  key += '}';
  return key;
}

}  // namespace

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(
    const std::string& name, const std::string& help,
    std::map<std::string, std::string> labels, const std::string& type) {
  std::string key = SeriesKey(name, labels);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    if (it->second->type != type) {
      throw InternalError("metric '" + key + "' re-registered as " + type +
                          " (was " + it->second->type + ")");
    }
    return it->second;
  }
  entries_.emplace_back();
  Entry* e = &entries_.back();
  e->name = name;
  e->help = help;
  e->labels = std::move(labels);
  e->type = type;
  by_key_[key] = e;
  return e;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     std::map<std::string, std::string> labels) {
  MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, help, std::move(labels), "counter");
  if (e->counter == nullptr) {
    counters_.emplace_back();
    e->counter = &counters_.back();
  }
  return e->counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 std::map<std::string, std::string> labels) {
  MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, help, std::move(labels), "gauge");
  if (e->gauge == nullptr) {
    gauges_.emplace_back();
    e->gauge = &gauges_.back();
  }
  return e->gauge;
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::string& help,
    std::map<std::string, std::string> labels) {
  MutexLock lock(&mu_);
  Entry* e = FindOrCreate(name, help, std::move(labels), "histogram");
  if (e->histogram == nullptr) {
    histograms_.emplace_back();
    e->histogram = &histograms_.back();
  }
  return e->histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  snap.samples.reserve(by_key_.size());
  for (const auto& [key, e] : by_key_) {  // map order => sorted, deterministic
    (void)key;
    MetricSample s;
    s.name = e->name;
    s.type = e->type;
    s.help = e->help;
    s.labels = e->labels;
    if (e->counter != nullptr) {
      s.value = static_cast<double>(e->counter->Value());
    } else if (e->gauge != nullptr) {
      s.value = static_cast<double>(e->gauge->Value());
    } else if (e->histogram != nullptr) {
      const Histogram& h = *e->histogram;
      std::vector<uint64_t> cum = h.CumulativeCounts();
      s.buckets.reserve(cum.size());
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        s.buckets.emplace_back(Histogram::BucketUpperBound(i),
                               cum[static_cast<size_t>(i)]);
      }
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        auto [ex_id, ex_val] = h.BucketExemplar(i);
        if (ex_id == 0) continue;
        MetricSample::Exemplar ex;
        ex.le = Histogram::BucketUpperBound(i);
        ex.trace_id = ex_id;
        ex.value = ex_val;
        s.exemplars.push_back(ex);
      }
      s.count = h.Count();
      s.sum = h.Sum();
      s.max = h.Max();
      s.p50 = h.Quantile(0.50);
      s.p90 = h.Quantile(0.90);
      s.p99 = h.Quantile(0.99);
    }
    snap.samples.push_back(std::move(s));
  }
  return snap;
}

// ---------------------------------------------------------------------------
// Rendering, through src/runtime/json.h: doubles print with %.17g so
// SnapshotFromJson round-trips bit-exactly.
// ---------------------------------------------------------------------------

namespace {

/// Prometheus `le` label value: finite bounds are exact powers of two and
/// print as integers; the overflow bucket prints as "+Inf".
std::string FormatLe(double ub) {
  if (std::isinf(ub)) return "+Inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", ub);
  return buf;
}

/// Prometheus sample value: integral values print without a decimal point.
std::string FormatValue(double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string RenderLabels(const std::map<std::string, std::string>& labels,
                         const std::string& extra_key = "",
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  if (!extra_key.empty()) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::ostringstream os;
  std::string last_name;
  for (const MetricSample& s : samples) {
    if (s.name != last_name) {
      os << "# HELP " << s.name << ' ' << s.help << '\n';
      os << "# TYPE " << s.name << ' ' << s.type << '\n';
      last_name = s.name;
    }
    if (s.type == "histogram") {
      // Exemplars render in the OpenMetrics style: the bucket sample line
      // gains a trailing `# {trace_id="..."} <observed value>`, linking the
      // bucket to the last request trace that landed in it.
      size_t ex_i = 0;
      for (const auto& [le, cum] : s.buckets) {
        os << s.name << "_bucket"
           << RenderLabels(s.labels, "le", FormatLe(le)) << ' ' << cum;
        if (ex_i < s.exemplars.size() && s.exemplars[ex_i].le == le) {
          const MetricSample::Exemplar& ex = s.exemplars[ex_i++];
          os << " # {trace_id=\"" << Hex16(ex.trace_id) << "\"} "
             << FormatValue(ex.value);
        }
        os << '\n';
      }
      os << s.name << "_sum" << RenderLabels(s.labels) << ' '
         << FormatValue(s.sum) << '\n';
      os << s.name << "_count" << RenderLabels(s.labels) << ' ' << s.count
         << '\n';
      os << "# " << s.name << " p50=" << FormatValue(s.p50)
         << " p90=" << FormatValue(s.p90) << " p99=" << FormatValue(s.p99)
         << " max=" << FormatValue(s.max) << '\n';
    } else {
      os << s.name << RenderLabels(s.labels) << ' ' << FormatValue(s.value)
         << '\n';
    }
  }
  return os.str();
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"samples\": [";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": " << JsonQuote(s.name)
       << ", \"type\": " << JsonQuote(s.type)
       << ", \"help\": " << JsonQuote(s.help) << ", \"labels\": {";
    bool lf = true;
    for (const auto& [k, v] : s.labels) {
      if (!lf) os << ", ";
      lf = false;
      os << JsonQuote(k) << ": " << JsonQuote(v);
    }
    os << "}";
    if (s.type == "histogram") {
      os << ", \"buckets\": [";
      bool bf = true;
      for (const auto& [le, cum] : s.buckets) {
        if (!bf) os << ", ";
        bf = false;
        os << "{\"le\": " << JsonQuote(FormatLe(le)) << ", \"cum\": " << cum
           << "}";
      }
      os << "]";
      if (!s.exemplars.empty()) {
        os << ", \"exemplars\": [";
        bool ef = true;
        for (const MetricSample::Exemplar& ex : s.exemplars) {
          if (!ef) os << ", ";
          ef = false;
          os << "{\"le\": " << JsonQuote(FormatLe(ex.le))
             << ", \"trace_id\": " << JsonQuote(Hex16(ex.trace_id))
             << ", \"value\": " << JsonDouble(ex.value) << "}";
        }
        os << "]";
      }
      os << ", \"count\": " << s.count << ", \"sum\": " << JsonDouble(s.sum)
         << ", \"max\": " << JsonDouble(s.max)
         << ", \"p50\": " << JsonDouble(s.p50)
         << ", \"p90\": " << JsonDouble(s.p90)
         << ", \"p99\": " << JsonDouble(s.p99);
    } else {
      os << ", \"value\": " << JsonDouble(s.value);
    }
    os << "}";
  }
  os << "]}";
  return os.str();
}

MetricsSnapshot SnapshotFromJson(const std::string& json) {
  MetricsSnapshot snap;
  JsonReader r(json);
  r.ExpectObjectStart();
  std::string key;
  while (r.NextKey(&key)) {
    if (key != "samples") {
      r.SkipValue();
      continue;
    }
    r.ExpectArrayStart();
    while (r.NextElement()) {
      r.ExpectObjectStart();
      MetricSample s;
      std::string f;
      while (r.NextKey(&f)) {
        if (f == "name") s.name = r.ParseString();
        else if (f == "type") s.type = r.ParseString();
        else if (f == "help") s.help = r.ParseString();
        else if (f == "labels") {
          r.ExpectObjectStart();
          std::string lk;
          while (r.NextKey(&lk)) s.labels[lk] = r.ParseString();
        } else if (f == "buckets") {
          r.ExpectArrayStart();
          while (r.NextElement()) {
            r.ExpectObjectStart();
            double le = 0;
            uint64_t cum = 0;
            std::string bf;
            while (r.NextKey(&bf)) {
              if (bf == "le") {
                std::string tok = r.ParseString();
                le = tok == "+Inf" ? std::numeric_limits<double>::infinity()
                                   : std::strtod(tok.c_str(), nullptr);
              } else if (bf == "cum") {
                cum = r.ParseUint();
              } else {
                r.SkipValue();
              }
            }
            s.buckets.emplace_back(le, cum);
          }
        } else if (f == "exemplars") {
          r.ExpectArrayStart();
          while (r.NextElement()) {
            r.ExpectObjectStart();
            MetricSample::Exemplar ex;
            std::string ef;
            while (r.NextKey(&ef)) {
              if (ef == "le") {
                std::string tok = r.ParseString();
                ex.le = tok == "+Inf"
                            ? std::numeric_limits<double>::infinity()
                            : std::strtod(tok.c_str(), nullptr);
              } else if (ef == "trace_id") {
                ex.trace_id = FromHex16(r.ParseString());
              } else if (ef == "value") {
                ex.value = r.ParseNumber();
              } else {
                r.SkipValue();
              }
            }
            s.exemplars.push_back(ex);
          }
        } else if (f == "count") s.count = r.ParseUint();
        else if (f == "sum") s.sum = r.ParseNumber();
        else if (f == "max") s.max = r.ParseNumber();
        else if (f == "p50") s.p50 = r.ParseNumber();
        else if (f == "p90") s.p90 = r.ParseNumber();
        else if (f == "p99") s.p99 = r.ParseNumber();
        else if (f == "value") s.value = r.ParseNumber();
        else r.SkipValue();
      }
      snap.samples.push_back(std::move(s));
    }
  }
  return snap;
}

}  // namespace obs
}  // namespace ldb
