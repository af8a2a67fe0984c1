// Self-test of the benchmark's accounting (stats.hpp): exact nearest-rank
// percentiles, the tail-sample rule behind every reported p99, and the op
// tally behind failed_frac. Exits non-zero on the first failed check; run.py
// runs it after every build, before any measurement.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "../stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
    ++failures;
  }
}

void test_percentiles() {
  // 1..1000 shuffled: the nearest-rank p50 is 500 and p99 is 990 exactly —
  // no bucket edge, no interpolation.
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const perfbench::Quantile p50 = perfbench::quantile(v, 0.50);
  const perfbench::Quantile p99 = perfbench::quantile(v, 0.99);
  expect(p50.value == 500 && p50.samples == 1000, "p50 of 1..1000 is 500");
  expect(p99.value == 990 && p99.samples == 1000, "p99 of 1..1000 is 990");
  expect(p99.beyond == 10, "p99 of 1000 samples has 10 beyond it");

  // A 1% slower tail must move p99 by 1% (a 1/16-wide histogram bucket
  // would hide it).
  std::vector<double> w = v;
  for (double& x : w) {
    if (x >= 990) x *= 1.01;
  }
  expect(perfbench::quantile(w, 0.99).value == 990 * 1.01,
         "p99 moves with a 1% change of its sample");

  expect(perfbench::quantile({}, 0.5).value == 0, "empty set reads 0");
  expect(perfbench::quantile({7}, 0.99).value == 7, "one sample is every pct");
  expect(perfbench::percentile_sorted({1, 2, 3, 4}, 0.5) == 2,
         "nearest-rank p50 of 4 samples is the 2nd");
}

void test_tail_rule() {
  expect(!perfbench::tail_supported(999, 0.99), "999 samples cannot carry p99");
  expect(perfbench::tail_supported(1000, 0.99), "1000 samples carry p99");
  expect(perfbench::samples_beyond(3200, 0.99) == 32, "3200 -> 32 beyond p99");
  expect(perfbench::samples_beyond(20, 0.5) == 10, "20 -> 10 beyond p50");
  expect(perfbench::samples_beyond(0, 0.99) == 0, "no samples, none beyond");
}

void test_tally() {
  perfbench::OpTally t;
  expect(t.failed_frac() == 0, "no ops, failed_frac 0");
  for (int i = 0; i < 97; ++i) t.pass();
  for (int i = 0; i < 3; ++i) t.fail();
  expect(t.attempted == 100 && t.ok == 97 && t.failed == 3, "tally counts");
  expect(t.failed_frac() == 0.03, "3 of 100 failed");
  t.demote();  // an ok op later found wrong
  expect(t.attempted == 100 && t.ok == 96 && t.failed == 4,
         "demote moves one op from ok to failed");

  perfbench::OpTally e;
  e.demote();
  expect(e.ok == 0 && e.failed == 0, "demote without an ok op is a no-op");
}

void test_median() {
  expect(perfbench::median({3, 1, 2}) == 2, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  expect(perfbench::median({}) == 0, "empty median");
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_rule();
  test_tally();
  test_median();
  if (failures) return EXIT_FAILURE;
  std::printf("perfbench selftest: ok\n");
  return EXIT_SUCCESS;
}
