// expect-error: duplicate case value
//
// Two type tags with one value, checked like KernelTypeTag
// (src/core/types.h): the careful reference protocol's tag check would
// accept a pointer to one type as the other.

#include <cstdint>

enum Tag : uint32_t {
  kTagFree = 0xDEADBEEF,
  kTagCowNode = 0x434F5731,
  kTagChainNode = 0x434F5731,  // Copied from kTagCowNode, never renumbered.
};

static_assert([](Tag tag) {
  switch (tag) {
    case kTagFree:
    case kTagCowNode:
    case kTagChainNode:
      return true;
  }
  return false;
}(kTagFree));
