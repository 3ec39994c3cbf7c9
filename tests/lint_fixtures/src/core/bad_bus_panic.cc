// Fixture: R12 hand-written bus-error panic. Never compiled.
#include "src/core/cell.h"
#include "src/flash/bus_error.h"

namespace hive {

void BadClockTick(Cell& cell, PhysAddr clock_word) {
  const std::optional<flash::BusError> trap = flash::CaptureTrap([&] {
    const uint64_t value = cell.heap().Read<uint64_t>(clock_word);
    cell.heap().Write<uint64_t>(clock_word, value + 1);
  });
  if (trap) {
    // Re-implements the section 4.1 panic by hand: must be flagged (R12),
    // and the allow() below must not silence it (R12 is unsuppressible).
    // hive-lint: allow(R12): fixture proving a justification cannot excuse a hand-written panic.
    cell.Panic(std::string("bus error updating own clock: ") + trap->what());
  }
}

}  // namespace hive
