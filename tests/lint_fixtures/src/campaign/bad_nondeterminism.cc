// Fixture: R10 nondeterminism in src/. Never compiled. R10 scans every file
// under src/, so no entry point needs to reach these ingredients: the
// hardware entropy sits in a constructor, which a call graph resolved by
// callee name never entered.
#include <chrono>
#include <map>
#include <random>
#include <unordered_map>

namespace campaign {

// Address-keyed ordered container: iteration follows ASLR'd addresses.
// Must be flagged (R10) at the declaration.
std::map<int*, int> g_fixture_by_addr;

struct FixtureJitter {
  // Hardware entropy in a constructor's initializer list. Must be flagged
  // (R10).
  FixtureJitter() : value(static_cast<int>(std::random_device()() % 7)) {}
  int value;
};

long FixtureWallClock() {
  // Wall-clock read. Must be flagged (R10).
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

int FixtureJitteredDelay() {
  // Must be flagged (R10): rand().
  return FixtureJitter().value + rand() % 3;
}

int FixtureScenario(unsigned seed) {
  std::unordered_map<int, int> counts;
  counts[static_cast<int>(seed)] = FixtureJitteredDelay();
  long sum = FixtureWallClock();
  // Must be flagged (R10): hash-order iteration feeding the result.
  for (const auto& [key, count] : counts) {
    sum += key * count;
  }
  return static_cast<int>(sum);
}

}  // namespace campaign
