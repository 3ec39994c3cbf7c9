// Fixture: R12 hand-written bus-error panic. Never compiled.
#include "src/core/cell.h"
#include "src/flash/bus_error.h"

namespace hive {

void BadClockTick(Cell& cell, PhysAddr clock_word) {
  try {
    const uint64_t value = cell.heap().Read<uint64_t>(clock_word);
    cell.heap().Write<uint64_t>(clock_word, value + 1);
    // hive-lint: allow(R3, R12): fixture proving a justification cannot excuse a hand-written panic.
  } catch (const flash::BusError& e) {
    // Re-implements the section 4.1 boundary by hand: must be flagged (R12),
    // and the allow() above must not silence it (R12 is unsuppressible).
    cell.Panic(std::string("bus error updating own clock: ") + e.what());
  }
}

}  // namespace hive
