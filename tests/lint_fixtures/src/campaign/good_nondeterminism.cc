// Fixture: R10 good twin. Never compiled. Must produce no diagnostics.
// A campaign run whose randomness is a seeded PRNG and whose iteration
// orders are all deterministic (ordered keys or a sorted snapshot of the
// unordered container).
#include <algorithm>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

namespace campaign {

int FixtureSeededJitter(std::mt19937_64& rng) {
  return static_cast<int>(rng() % 7);
}

int RunCampaign(unsigned seed) {
  std::mt19937_64 rng(seed);
  std::map<int, int> ordered_counts;
  ordered_counts[FixtureSeededJitter(rng)] = 1;
  int sum = 0;
  for (const auto& [key, count] : ordered_counts) {
    sum += key * count;
  }
  std::unordered_map<int, int> scratch;
  scratch[sum] = 2;
  std::vector<int> keys;
  keys.reserve(scratch.size());
  // hive-lint: allow(R10): collection loop only; keys are sorted below before they affect the result.
  for (const auto& [key, count] : scratch) {
    (void)count;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  for (int key : keys) {
    sum += scratch[key];
  }
  return sum;
}

}  // namespace campaign
