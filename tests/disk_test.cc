#include "src/flash/disk.h"

#include <gtest/gtest.h>

namespace flash {
namespace {

TEST(DiskTest, SequentialAccessIsCheaperThanRandom) {
  Disk disk(1);
  const Time first = disk.AccessTime(0, 4096);
  const Time sequential = disk.AccessTime(4096, 4096);
  Disk disk2(2);
  (void)disk2.AccessTime(0, 4096);
  const Time random = disk2.AccessTime(disk2.capacity_bytes() / 2, 4096);
  EXPECT_LT(sequential, random);
  EXPECT_GT(first, 0);
  EXPECT_EQ(disk.sequential_accesses(), 1u);
}

TEST(DiskTest, TransferTimeScalesWithSize) {
  Disk disk(1);
  (void)disk.AccessTime(0, 4096);
  const Time small = disk.AccessTime(4096, 4096);
  const Time large = disk.AccessTime(8192, 64 * 4096);
  EXPECT_GT(large, small * 10);
}

TEST(DiskTest, SeekTimeMatchesHp97560Curve) {
  // A full-stroke seek on the HP 97560 is ~8 + 0.008 * 1962 ~= 23.7 ms; with
  // rotation it stays under ~39 ms; short seeks are a few ms.
  Disk disk(1);
  (void)disk.AccessTime(0, 512);
  const Time full_stroke = disk.AccessTime(disk.capacity_bytes() - 512, 512);
  EXPECT_GT(full_stroke, 20 * kMillisecond);
  EXPECT_LT(full_stroke, 45 * kMillisecond);
}

}  // namespace
}  // namespace flash
