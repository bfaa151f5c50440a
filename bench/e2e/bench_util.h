// Small shared helpers for ldb_bench: the clock, seeded random streams,
// sample statistics, and number formatting.

#ifndef LAMBDADB_BENCH_E2E_BENCH_UTIL_H_
#define LAMBDADB_BENCH_E2E_BENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ldb::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Wall time of `fn()` in microseconds.
template <typename Fn>
double TimeUs(Fn&& fn) {
  Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// splitmix64: derives independent sub-seeds from the run's --seed and
/// mixes per-row hashes into an order-independent digest.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Nearest-rank percentile of an ascending-sorted sample (q in [0, 1]).
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0;
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median plus the first and third quartiles, computed like Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method), so --repeat
/// spreads match what an external checker computes from the same runs.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  double spread() const { return median != 0 ? (q3 - q1) / median : 0; }
};

inline Quartiles ComputeQuartiles(std::vector<double> v) {
  Quartiles out;
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  if (n == 0) return out;
  if (n == 1) {
    out.q1 = out.median = out.q3 = v[0];
    return out;
  }
  double q[3];
  for (int i = 1; i <= 3; ++i) {
    int j = i * (n + 1) / 4;
    j = std::clamp(j, 1, n - 1);
    int delta = i * (n + 1) - j * 4;
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  }
  out.q1 = q[0];
  out.median = Median(v);
  out.q3 = q[2];
  return out;
}

/// Shortest decimal that reads back as exactly `v` (JSON and text output
/// keep every measured digit).
inline std::string Num(double v) {
  char buf[40];
  auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// Escapes a string for a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace ldb::e2e

#endif  // LAMBDADB_BENCH_E2E_BENCH_UTIL_H_
