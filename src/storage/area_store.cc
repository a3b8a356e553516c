#include "storage/area_store.h"

#include <algorithm>

namespace bess {

namespace {

inline uint32_t AreaKey(uint16_t db, uint16_t area_id) {
  return (static_cast<uint32_t>(db) << 16) | area_id;
}

/// Pages left in the extent containing `page` (>= 1).
inline uint32_t ExtentRemaining(PageId page) {
  return kPagesPerExtent - (page % kPagesPerExtent);
}

}  // namespace

void AreaSegmentStore::AddArea(uint16_t db, uint16_t area_id,
                               StorageArea* area) {
  areas_[AreaKey(db, area_id)] = area;
}

StorageArea* AreaSegmentStore::Find(uint16_t db, uint16_t area_id) const {
  auto it = areas_.find(AreaKey(db, area_id));
  return it == areas_.end() ? nullptr : it->second;
}

Status AreaSegmentStore::FetchSlotted(SegmentId id, void* buf,
                                      uint32_t* page_count) {
  (void)id;
  (void)buf;
  (void)page_count;
  return Status::NotSupported("slotted segments are not raw-area addressable");
}

Status AreaSegmentStore::FetchPages(uint16_t db, uint16_t area, PageId first,
                                    uint32_t page_count, void* buf) {
  StorageArea* a = Find(db, area);
  if (a == nullptr) {
    return Status::NotFound("no storage area for db " + std::to_string(db) +
                            " area " + std::to_string(area));
  }
  char* out = static_cast<char*>(buf);
  while (page_count > 0) {
    const uint32_t n = std::min(page_count, ExtentRemaining(first));
    BESS_RETURN_IF_ERROR(a->ReadPages(first, n, out));
    first += n;
    page_count -= n;
    out += static_cast<size_t>(n) * kPageSize;
  }
  return Status::OK();
}

Status AreaSegmentStore::WritePages(uint16_t db, uint16_t area, PageId first,
                                    uint32_t page_count, const void* buf) {
  StorageArea* a = Find(db, area);
  if (a == nullptr) {
    return Status::NotFound("no storage area for db " + std::to_string(db) +
                            " area " + std::to_string(area));
  }
  const char* in = static_cast<const char*>(buf);
  while (page_count > 0) {
    const uint32_t n = std::min(page_count, ExtentRemaining(first));
    BESS_RETURN_IF_ERROR(a->WritePages(first, n, in));
    first += n;
    page_count -= n;
    in += static_cast<size_t>(n) * kPageSize;
  }
  return Status::OK();
}

}  // namespace bess
