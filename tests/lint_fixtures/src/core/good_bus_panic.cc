// Fixture: R12 good twin. Never compiled. Must produce no diagnostics.
// The same clock update run through the cell's one section 4.1 boundary.
#include "src/core/cell.h"

namespace hive {

void GoodClockTick(Cell& cell, PhysAddr clock_word) {
  (void)cell.RunKernel("updating own clock", [&] {
    const uint64_t value = cell.heap().Read<uint64_t>(clock_word);
    cell.heap().Write<uint64_t>(clock_word, value + 1);
  });
}

}  // namespace hive
