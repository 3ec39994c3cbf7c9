// The simulated hardware trap. This is the single exception type in the
// codebase: it models the bus error a MIPS processor takes when an access
// fails. CaptureTrap below is its one catch (paper section 4.1): a careful
// section (src/core/careful_ref.h) turns a captured trap into a Status, and
// Cell::RunKernel panics the cell on a trap taken anywhere else in the kernel.

#ifndef HIVE_SRC_FLASH_BUS_ERROR_H_
#define HIVE_SRC_FLASH_BUS_ERROR_H_

#include <exception>
#include <optional>
#include <utility>

#include "src/flash/config.h"

namespace flash {

enum class BusErrorKind {
  kNodeFailed,      // Target node's memory is gone (hardware fault).
  kMemoryCutoff,    // Target cell panicked and cut off remote access.
  kFirewall,        // Write denied by the firewall bit vector.
  kInvalidAddress,  // Address outside the physical address space.
  kMisaligned,      // Unaligned typed access.
};

class BusError : public std::exception {
 public:
  BusError(BusErrorKind kind, PhysAddr addr) : kind_(kind), addr_(addr) {}

  BusErrorKind kind() const { return kind_; }
  PhysAddr addr() const { return addr_; }

  const char* what() const noexcept override {
    switch (kind_) {
      case BusErrorKind::kNodeFailed:
        return "bus error: node failed";
      case BusErrorKind::kMemoryCutoff:
        return "bus error: memory cutoff";
      case BusErrorKind::kFirewall:
        return "bus error: firewall write denied";
      case BusErrorKind::kInvalidAddress:
        return "bus error: invalid physical address";
      case BusErrorKind::kMisaligned:
        return "bus error: misaligned access";
    }
    return "bus error";
  }

 private:
  BusErrorKind kind_;
  PhysAddr addr_;
};

// Runs `fn` and returns the trap it took, if any. Each caller says why a
// trap is a legal outcome where it captures one.
template <typename Fn>
[[nodiscard]] std::optional<BusError> CaptureTrap(Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
  } catch (const BusError& trap) {
    return trap;
  }
  return std::nullopt;
}

}  // namespace flash

#endif  // HIVE_SRC_FLASH_BUS_ERROR_H_
