#include "hostspeed.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 12;  // 16 KiB
constexpr int kIterations = 40000;
constexpr int kTimings = 5;

// Hashing, table updates and a data-dependent branch, the mix a
// lexer/compiler/interpreter has, on a table that stays in L1 so that the
// time depends on the core's speed, not on what the program left in the
// caches.  Larger tables (1 and 32 MiB) took up to twice as long right
// after a request as in a loop of their own.
std::uint32_t fixedWork(std::vector<std::uint32_t>& table) {
  std::uint32_t h = 2166136261u, x = 2463534242u;
  for (int i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    std::uint32_t& slot = table[(x ^ h) & (kTableWords - 1)];
    if ((slot ^ x) & 1u) slot += x;
    else slot ^= h;
    h = (h ^ slot) * 16777619u;
  }
  return h;
}

}  // namespace

double hostSampleMs() {
  static std::vector<std::uint32_t> table(kTableWords);  // touched here, not while timed
  static volatile std::uint32_t sink = 0;
  std::array<double, kTimings> ms{};
  for (double& m : ms) {
    const std::int64_t t0 = nowNs();
    sink = sink + fixedWork(table);
    m = static_cast<double>(nowNs() - t0) / 1e6;
  }
  std::nth_element(ms.begin(), ms.begin() + kTimings / 2, ms.end());
  return ms[kTimings / 2];
}

}  // namespace perfbench
