// Fixture: R3 violations. Never compiled.
#include "src/flash/bus_error.h"
#include "src/flash/phys_mem.h"

namespace hive {

uint64_t SwallowTrap(flash::PhysMem* mem, int cpu) {
  try {
    return mem->ReadValue<uint64_t>(cpu, 0x1000);  // hive-lint: allow(R1): fixture focuses on R3; the access itself is not under test here.
    // hive-lint: allow(R3): fixture proving a justification cannot excuse a hand-written catch.
  } catch (const flash::BusError&) {
    // Catching the trap outside flash::CaptureTrap: must be flagged (R3),
    // and the allow() above must not silence it (R3 is unsuppressible).
    return 0;
  }
}

void FakeTrap() {
  // Raising the hardware trap from kernel code: must be flagged (R3).
  // hive-lint: allow(R3): fixture proving a justification cannot excuse a raised trap.
  throw flash::BusError(flash::BusErrorKind::kFirewall, 0x2000);
}

}  // namespace hive
