#include "src/core/pfdat.h"

#include <algorithm>

#include "src/base/log.h"

namespace hive {

Pfdat* PfdatTable::AllocateSlot() {
  if (!free_slots_.empty()) {
    Pfdat* slot = free_slots_.back();
    free_slots_.pop_back();
    *slot = Pfdat{};
    return slot;
  }
  if (slab_used_ == kSlabPfdats) {
    if (slab_cursor_ + 1 < slabs_.size()) {
      ++slab_cursor_;  // Recycle a slab retained across Clear().
    } else {
      slabs_.push_back(std::make_unique<Pfdat[]>(kSlabPfdats));
      slab_cursor_ = slabs_.size() - 1;
    }
    slab_used_ = 0;
  }
  Pfdat* slot = &slabs_[slab_cursor_][slab_used_++];
  *slot = Pfdat{};
  return slot;
}

void PfdatTable::ReleaseSlot(Pfdat* pfdat) {
  // Careful check: a second RemoveExtended on a recycled slot (a double
  // remove would push the slot onto the free list twice, later aliasing two
  // live pfdats) now trips RemoveExtended's CHECK instead.
  pfdat->extended = false;
  free_slots_.push_back(pfdat);
}

size_t PfdatTable::DenseIndex(PhysAddr frame) const {
  if (dense_.empty() || frame < dense_base_ || (frame - dense_base_) % dense_stride_ != 0) {
    return dense_.size();
  }
  const uint64_t index = (frame - dense_base_) / dense_stride_;
  return static_cast<size_t>(std::min<uint64_t>(index, dense_.size()));
}

void PfdatTable::SetRegularRange(PhysAddr base, uint64_t page_size, size_t count) {
  CHECK(dense_.empty()) << "regular range registered twice";
  CHECK_GT(page_size, 0u);
  dense_base_ = base;
  dense_stride_ = page_size;
  dense_.assign(count, nullptr);
  dense_hi_ = 0;
}

Pfdat* PfdatTable::Regular(size_t index) {
  CHECK_LT(index, dense_.size());
  Pfdat*& slot = dense_[index];
  if (slot == nullptr) {
    slot = AllocateSlot();
    slot->frame = dense_base_ + dense_stride_ * index;
    slot->extended = false;
    dense_hi_ = std::max(dense_hi_, index + 1);
  }
  return slot;
}

Pfdat* PfdatTable::AddExtended(PhysAddr frame) {
  CHECK(DenseIndex(frame) == dense_.size())
      << "extended pfdat collides with existing pfdat for frame";
  Pfdat* pfdat = AllocateSlot();
  pfdat->frame = frame;
  pfdat->extended = true;
  auto [it, inserted] = extended_by_frame_.emplace(frame, pfdat);
  CHECK(inserted) << "extended pfdat collides with existing pfdat for frame";
  (void)it;
  return pfdat;
}

void PfdatTable::RemoveExtended(Pfdat* pfdat) {
  CHECK(pfdat->extended);
  if (pfdat->HasLogicalBinding()) {
    RemoveHash(pfdat);
  }
  extended_by_frame_.erase(pfdat->frame);
  ReleaseSlot(pfdat);  // Recycled; the slot stays owned by the arena.
}

Pfdat* PfdatTable::FindByFrame(PhysAddr frame) {
  if (const size_t index = DenseIndex(frame); index < dense_.size()) {
    return Regular(index);
  }
  auto it = extended_by_frame_.find(frame);
  return it == extended_by_frame_.end() ? nullptr : it->second;
}

Pfdat* PfdatTable::FindByLpid(const LogicalPageId& lpid) {
  if (hash_count_ == 0) {
    return nullptr;
  }
  for (Pfdat* pfdat = *Bucket(lpid); pfdat != nullptr; pfdat = pfdat->hash_next) {
    if (pfdat->lpid == lpid) {
      return pfdat;
    }
  }
  return nullptr;
}

void PfdatTable::InsertHash(Pfdat* pfdat) {
  CHECK(pfdat->HasLogicalBinding());
  CHECK(FindByLpid(pfdat->lpid) == nullptr) << "logical page already present in hash";
  if (hash_count_ >= buckets_.size()) {
    Rehash(std::max(kInitialHashBuckets, 2 * buckets_.size()));
  }
  Pfdat** head = Bucket(pfdat->lpid);
  pfdat->hash_next = *head;
  *head = pfdat;
  ++hash_count_;
}

void PfdatTable::RemoveHash(Pfdat* pfdat) {
  if (hash_count_ == 0) {
    return;
  }
  for (Pfdat** link = Bucket(pfdat->lpid); *link != nullptr; link = &(*link)->hash_next) {
    if (*link == pfdat) {
      *link = pfdat->hash_next;
      pfdat->hash_next = nullptr;
      --hash_count_;
      return;
    }
  }
}

void PfdatTable::Rehash(size_t count) {
  std::vector<Pfdat*> old(count, nullptr);
  old.swap(buckets_);
  for (Pfdat* pfdat : old) {
    while (pfdat != nullptr) {
      Pfdat* next = pfdat->hash_next;
      Pfdat** head = Bucket(pfdat->lpid);
      pfdat->hash_next = *head;
      *head = pfdat;
      pfdat = next;
    }
  }
}

}  // namespace hive
