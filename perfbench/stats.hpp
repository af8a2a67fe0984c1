// Accounting helpers shared by the benchmark and its self-test: exact
// percentiles over per-op samples, the tail-support rule, and the op tally
// behind failed_frac. Header-only and free of library dependencies so the
// self-test can check them in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples needed beyond a reported percentile (a p99 from fewer than ten
/// tail samples is noise).
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile of an ascending-sorted sample set: the smallest
/// sample with at least q of the samples at or below it. Exact (no
/// bucketing), so a change of any size moves it. 0 for an empty set.
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-percentile position.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

/// True when the q-percentile of n samples has enough tail behind it.
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinTailSamples;
}

/// One percentile as reported: value plus the sample count it rests on.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline Quantile quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return {percentile_sorted(samples, q), samples.size(),
          samples_beyond(samples.size(), q)};
}

/// Median of a small set of repeat measurements (mean of the middle two for
/// an even count). 0 for an empty set.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Op accounting: every attempted op ends either ok or failed. A failed op
/// is one that errored, was rejected, timed out, was shed late, or returned
/// a wrong value; an op that completes ok and is later found wrong moves
/// from ok to failed.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;

  void pass() {
    ++attempted;
    ++ok;
  }
  void fail() {
    ++attempted;
    ++failed;
  }
  /// An op already counted ok turned out to have produced a wrong output.
  void demote() {
    if (ok > 0) {
      --ok;
      ++failed;
    }
  }
  double failed_frac() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

}  // namespace perfbench
