// Fault-injection library (paper section 7.4): the mechanics of every fault
// family, shared by the campaign runner (RunScenario), the serve soak
// (RunSoak) and the Table 7.4 bench. Callers keep only their plan: which
// fault, which victim, when, and from which seed or random stream.
//
// A function injects the fault and reports whether it landed, through its
// return value or, for faults that wait for a target or run in cycles,
// through an OnLanded callback (the episode handle). The first attempt runs
// inside the caller's event; each retry or driver round is one ScheduleAfter.

#ifndef HIVE_SRC_CAMPAIGN_INJECTORS_H_
#define HIVE_SRC_CAMPAIGN_INJECTORS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "src/core/hive_system.h"
#include "src/flash/fault_injector.h"

namespace campaign {

using hive::CellId;
using hive::Time;

// Called each time an asynchronous injection lands.
using OnLanded = std::function<void()>;

// Fail-stop failure of the victim cell's (first) node.
void FailCellNode(hive::HiveSystem& sys, CellId victim);

// The kernel pointer to corrupt in `proc` on `cell`, or nullopt when the
// process holds no suitable structure yet.
using PointerLocator =
    std::function<std::optional<hive::PhysAddr>(hive::Cell& cell, hive::Process& proc)>;

// The `next` pointer of the first address-map entry, once the process has
// mapped at least two regions (so every walk past the first entry follows
// the corrupt pointer).
std::optional<hive::PhysAddr> AddrMapNextPointer(hive::Cell& cell, hive::Process& proc);

// Corrupts (FaultInjector::CorruptPointer seeded with `injector_seed`; the
// "other cell" of `mode` is the victim's neighbour) the pointer `locate`
// finds in the victim's first live process that has one. Without a match it
// retries every 10 ms until `give_up`; an unreachable victim ends the chain
// at once. `on_landed` runs once, right after the store.
void CorruptPointerWhenFound(hive::HiveSystem& sys, CellId victim, uint64_t injector_seed,
                             flash::PointerCorruptionMode mode, Time give_up,
                             PointerLocator locate, OnLanded on_landed);

// The frame caching page `page` of `path` in `cell`'s page cache, after a
// read-only lookup by the cell itself whose reference is kept, so the frame
// stays cached for a wild write to hit. nullopt if the file or page cannot
// be had.
std::optional<hive::PhysAddr> CachedFrame(hive::Cell& cell, const std::string& path,
                                          uint64_t page);

// The writer kernel stores `bytes` at `addr` (in the target cell's memory)
// through the checked hardware path. Firewall on: the store is denied and the
// bus error panics the writer with "wild write into cell <target> denied by
// firewall" -- damage contained (section 4.1); returns false. Firewall
// checking off: the bytes land; returns true.
bool WildWrite(hive::HiveSystem& sys, CellId writer, CellId target, hive::PhysAddr addr,
               std::span<const uint8_t> bytes);

// A buggy detector on `accuser` raises an RPC-timeout alert against healthy
// `accused`; agreement must refuse to kill it. Lands (returns true) only if
// both cells are reachable.
bool FalseAccusation(hive::HiveSystem& sys, CellId accuser, CellId accused);

// Installs one time-windowed message-fault plan on the machine's SIPS hops,
// enabling the fault model (seeded from `seed`) on first use. Delays are
// capped at 30 us, well under the 50 us RPC spin window: delay models a
// non-minimal route, not a partition.
void InstallMessageFaults(hive::HiveSystem& sys, uint64_t seed, flash::MessageFaultPlan plan);

// Turns the victim Byzantine along the RogueAxis bits in `axes`: behaviour
// flags for the clock / RPC / vote axes, raw-path corruption of its own
// published probe structures for the heap axes, and, until `drive_until`, a
// babble flood and repeated accusations of `target` (the only other reader
// of `target` is kRogueHeapBadPtr). The garbage and corruption streams derive
// from `seed` and `salt`. Lands (returns true) only if the victim is
// reachable.
bool TurnRogue(hive::HiveSystem& sys, CellId victim, CellId target, uint32_t axes,
               uint64_t seed, uint64_t salt, Time drive_until);

// Picks the kill after `cycle` (whose victim just rejoined): the next victim
// and the gap before killing it.
using NextStormKill = std::function<std::pair<CellId, Time>(uint32_t cycle, CellId victim)>;

// Up to `cycles` kill/rejoin cycles, the first against `first`, until
// `until`. A kill is held (2 ms polls) while its victim is unreachable or in
// recovery or fewer than three cells are live (two survivors keep a recovery
// master); then the storm polls every 2 ms until the victim is a live,
// unexcised, not-recovering member again and asks `next` for the following
// victim and gap. `on_landed` runs after every kill.
void RunRebootStorm(hive::HiveSystem& sys, CellId first, uint32_t cycles, Time until,
                    NextStormKill next, OnLanded on_landed);

// Null-RPC heartbeats between every ordered pair of reachable, non-recovering
// cells, every 20 ms while the next round starts by `until`. A mute peer
// surfaces through the transport's own timeout hint; a null reply carrying
// garbage raises kInvariantMismatch with kRpcReply evidence.
void DriveHeartbeats(hive::HiveSystem& sys, Time until);

// Non-idempotent intercell traffic: each usable cell borrows one frame from
// its usable neighbour and returns it, every `period` while the next round
// starts by `until`. Keeps mutating RPCs in flight through message-fault
// windows and leaves recovery live loan state to reclaim.
void ProbeIntercellRpc(hive::HiveSystem& sys, Time period, Time until);

}  // namespace campaign

#endif  // HIVE_SRC_CAMPAIGN_INJECTORS_H_
