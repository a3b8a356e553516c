// SegmentStore: where the SegmentMapper gets and puts segment bytes.
//
// The mapper implements the paper's in-place access machinery independently
// of *where* pages come from; the store is the seam between process
// structures (§4):
//   - LocalStore          — direct to the storage areas (server-linked apps)
//   - ClientCache          — copy-on-access private pool via the node server
// Both serve the identical interface, "it is just the process boundaries
// that differ" (§4.1).
#ifndef BESS_VM_SEGMENT_STORE_H_
#define BESS_VM_SEGMENT_STORE_H_

#include <cstdint>

#include "segment/layout.h"
#include "util/status.h"

namespace bess {

/// Maximum pages in a slotted segment; the mapper reserves this much address
/// space for a slotted segment before its true size is known.
inline constexpr uint32_t kMaxSlottedPages = 16;

class SegmentStore {
 public:
  virtual ~SegmentStore() = default;

  /// Fetches the slotted segment image for `id` into `buf` (capacity
  /// kMaxSlottedPages * kPageSize). Sets `*page_count` to the actual size.
  virtual Status FetchSlotted(SegmentId id, void* buf,
                              uint32_t* page_count) = 0;

  /// Fetches `page_count` raw pages of (db, area) starting at `first`.
  virtual Status FetchPages(uint16_t db, uint16_t area, PageId first,
                            uint32_t page_count, void* buf) = 0;

  /// Writes `page_count` raw pages back.
  virtual Status WritePages(uint16_t db, uint16_t area, PageId first,
                            uint32_t page_count, const void* buf) = 0;
};

}  // namespace bess

#endif  // BESS_VM_SEGMENT_STORE_H_
