#include "src/core/trace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/core/cell.h"
#include "src/flash/fault_injector.h"
#include "tests/test_util.h"

namespace hive {
namespace {

TEST(TraceBufferTest, RecordsInOrder) {
  TraceBuffer trace;
  trace.Record(100, TraceEvent::kBoot);
  trace.Record(200, TraceEvent::kHintRaised, 2);
  trace.Record(300, TraceEvent::kEnterRecovery, 2);
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].event, TraceEvent::kBoot);
  EXPECT_EQ(records[2].event, TraceEvent::kEnterRecovery);
  EXPECT_EQ(records[1].arg0, 2u);
}

TEST(TraceBufferTest, RingOverwritesOldest) {
  TraceBuffer trace;
  for (uint64_t i = 0; i < TraceBuffer::kCapacity + 10; ++i) {
    trace.Record(static_cast<Time>(i), TraceEvent::kSwapOut, i);
  }
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), TraceBuffer::kCapacity);
  EXPECT_EQ(records.front().arg0, 10u);  // The 10 oldest were overwritten.
  EXPECT_EQ(records.back().arg0, TraceBuffer::kCapacity + 9);
  EXPECT_EQ(trace.total_recorded(), TraceBuffer::kCapacity + 10);
}

TEST(TraceBufferTest, SnapshotAtExactCapacityBoundary) {
  // next_ == kCapacity is the edge between the un-wrapped single-span path
  // and the wrapped two-span path: both sides of the boundary must agree.
  TraceBuffer trace;
  for (uint64_t i = 0; i < TraceBuffer::kCapacity; ++i) {
    trace.Record(static_cast<Time>(i), TraceEvent::kSwapIn, i);
  }
  auto full = trace.Snapshot();
  ASSERT_EQ(full.size(), TraceBuffer::kCapacity);
  EXPECT_EQ(full.front().arg0, 0u);
  EXPECT_EQ(full.back().arg0, TraceBuffer::kCapacity - 1);

  trace.Record(static_cast<Time>(TraceBuffer::kCapacity), TraceEvent::kSwapIn,
               TraceBuffer::kCapacity);
  auto wrapped = trace.Snapshot();
  ASSERT_EQ(wrapped.size(), TraceBuffer::kCapacity);
  EXPECT_EQ(wrapped.front().arg0, 1u);  // Oldest slot was overwritten.
  EXPECT_EQ(wrapped.back().arg0, TraceBuffer::kCapacity);
}

TEST(TraceBufferTest, CountMatchesSnapshotBeforeAndAfterWrap) {
  TraceBuffer trace;
  auto count_via_snapshot = [&](TraceEvent event) {
    int n = 0;
    for (const TraceRecord& r : trace.Snapshot()) {
      n += r.event == event ? 1 : 0;
    }
    return n;
  };
  for (uint64_t i = 0; i < TraceBuffer::kCapacity / 2; ++i) {
    trace.Record(static_cast<Time>(i), TraceEvent::kSwapOut, i);
  }
  EXPECT_EQ(trace.Count(TraceEvent::kSwapOut), count_via_snapshot(TraceEvent::kSwapOut));
  for (uint64_t i = 0; i < TraceBuffer::kCapacity; ++i) {
    trace.Record(static_cast<Time>(i), TraceEvent::kSwapIn, i);
  }
  EXPECT_EQ(trace.Count(TraceEvent::kSwapOut), count_via_snapshot(TraceEvent::kSwapOut));
  EXPECT_EQ(trace.Count(TraceEvent::kSwapIn), count_via_snapshot(TraceEvent::kSwapIn));
}

TEST(TraceBufferTest, RenderNamesEvents) {
  TraceBuffer trace;
  trace.Record(1500, TraceEvent::kPanic);
  const std::string dump = trace.Render();
  EXPECT_NE(dump.find("panic"), std::string::npos);
  EXPECT_NE(dump.find("t=1us"), std::string::npos);
}

TEST(TraceBufferTest, EveryEventHasADistinctName) {
  // TraceEventName must cover the whole enum (-Werror=switch makes a missing
  // case a build error) and no two events may share a name, or trace dumps
  // and triage become ambiguous.
  std::set<std::string> names;
  for (uint8_t value = 0; value <= static_cast<uint8_t>(TraceEvent::kAdmissionShed);
       ++value) {
    const std::string name = TraceEventName(static_cast<TraceEvent>(value));
    EXPECT_NE(name, "?") << "unnamed event " << static_cast<int>(value);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_TRUE(names.count("page-salvaged"));
  EXPECT_TRUE(names.count("salvage-rejected"));
  EXPECT_TRUE(names.count("reintegration-start"));
  EXPECT_TRUE(names.count("reintegration-done"));
  EXPECT_TRUE(names.count("admission-shed"));
}

TEST(TraceIntegrationTest, FailureLeavesAuditTrailOnSurvivors) {
  auto ts = hivetest::BootHive(4);
  flash::FaultInjector injector(ts.machine.get(), 1);
  injector.ScheduleNodeFailure(2, 30 * kMillisecond);
  ts.machine->events().RunUntil(300 * kMillisecond);

  // Every survivor booted, entered and exited recovery exactly once.
  for (CellId c : ts.hive->LiveCells()) {
    TraceBuffer& trace = ts.cell(c).trace();
    EXPECT_EQ(trace.Count(TraceEvent::kBoot), 1) << c;
    EXPECT_EQ(trace.Count(TraceEvent::kEnterRecovery), 1) << c;
    EXPECT_EQ(trace.Count(TraceEvent::kExitRecovery), 1) << c;
  }
  // Somebody raised the hint.
  int hints = 0;
  for (CellId c : ts.hive->LiveCells()) {
    hints += ts.cell(c).trace().Count(TraceEvent::kHintRaised);
  }
  EXPECT_GE(hints, 1);
}

TEST(TraceBufferTest, CountSurvivesWraparound) {
  // Mixed event kinds across several full ring wraps: Count must reflect
  // only the records still in the ring, and Snapshot must stay time-ordered.
  TraceBuffer trace;
  const uint64_t total = 3 * TraceBuffer::kCapacity + 7;
  for (uint64_t i = 0; i < total; ++i) {
    const TraceEvent event = i % 3 == 0   ? TraceEvent::kSwapOut
                             : i % 3 == 1 ? TraceEvent::kSwapIn
                                          : TraceEvent::kPageDiscarded;
    trace.Record(static_cast<Time>(i), event, i);
  }
  EXPECT_EQ(trace.total_recorded(), total);
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), TraceBuffer::kCapacity);
  // The ring holds exactly the newest kCapacity records, still in order.
  EXPECT_EQ(records.front().arg0, total - TraceBuffer::kCapacity);
  EXPECT_EQ(records.back().arg0, total - 1);
  int counted = 0;
  for (TraceEvent event :
       {TraceEvent::kSwapOut, TraceEvent::kSwapIn, TraceEvent::kPageDiscarded}) {
    counted += trace.Count(event);
  }
  EXPECT_EQ(counted, static_cast<int>(TraceBuffer::kCapacity));
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].when, records[i - 1].when);
  }
  // A kind that was never recorded counts zero even after wrapping.
  EXPECT_EQ(trace.Count(TraceEvent::kPanic), 0);
}

// Golden event order across a full fail -> agree -> recover sequence: on
// every survivor the recovery-related records appear in exactly the order
// the protocol prescribes, with consistent timestamps and arguments.
TEST(TraceIntegrationTest, GoldenEventOrderThroughRecovery) {
  auto ts = hivetest::BootHive(4);
  const CellId victim = 2;
  flash::FaultInjector injector(ts.machine.get(), 1);
  injector.ScheduleNodeFailure(victim, 30 * kMillisecond);
  ts.machine->events().RunUntil(400 * kMillisecond);
  ASSERT_FALSE(ts.cell(victim).alive());

  int accusers = 0;
  for (CellId c : ts.hive->LiveCells()) {
    TraceBuffer& trace = ts.cell(c).trace();
    // Filter to the recovery-protocol events.
    std::vector<TraceRecord> protocol;
    for (const TraceRecord& record : trace.Snapshot()) {
      switch (record.event) {
        case TraceEvent::kBoot:
        case TraceEvent::kHintRaised:
        case TraceEvent::kEnterRecovery:
        case TraceEvent::kExitRecovery:
          protocol.push_back(record);
          break;
        default:
          break;
      }
    }
    // Golden order: boot, optional hint, enter, exit -- nothing else.
    ASSERT_GE(protocol.size(), 3u) << "cell " << c;
    ASSERT_LE(protocol.size(), 4u) << "cell " << c;
    const bool raised_hint = protocol.size() == 4;
    size_t at = 0;
    EXPECT_EQ(protocol[at++].event, TraceEvent::kBoot) << c;
    if (raised_hint) {
      ++accusers;
      EXPECT_EQ(protocol[at].event, TraceEvent::kHintRaised) << c;
      // The hint names the failed cell.
      EXPECT_EQ(protocol[at].arg0, static_cast<uint64_t>(victim)) << c;
      EXPECT_GE(protocol[at].when, 30 * kMillisecond) << c;
      ++at;
    }
    EXPECT_EQ(protocol[at].event, TraceEvent::kEnterRecovery) << c;
    EXPECT_EQ(protocol[at].arg0, static_cast<uint64_t>(victim)) << c;
    ++at;
    EXPECT_EQ(protocol[at].event, TraceEvent::kExitRecovery) << c;
    // Timestamps are nondecreasing through the sequence.
    for (size_t i = 1; i < protocol.size(); ++i) {
      EXPECT_GE(protocol[i].when, protocol[i - 1].when) << c;
    }
    // The recovery entry cannot precede the injected failure. (Trace records
    // carry event-queue time; RecoveryStats carries virtual time -- the two
    // clocks are not comparable to each other.)
    EXPECT_GE(protocol[protocol.size() - 2].when, 30 * kMillisecond) << c;
    EXPECT_GE(ts.hive->recovery().last_stats().detect_time,
              30 * kMillisecond);
  }
  // Clock monitoring is a ring: exactly one survivor watches the victim.
  EXPECT_EQ(accusers, 1);
}

TEST(TraceIntegrationTest, PanickedCellKeepsPostMortem) {
  auto ts = hivetest::BootHive(4);
  ts.cell(1).Panic("test");
  EXPECT_EQ(ts.cell(1).trace().Count(TraceEvent::kPanic), 1);
  EXPECT_NE(ts.cell(1).trace().Render().find("panic"), std::string::npos);
}

}  // namespace
}  // namespace hive
