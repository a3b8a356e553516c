// AreaSegmentStore: a multifile SegmentStore directly over storage areas.
//
// The paper's server-linked configuration reads pages straight from the
// storage areas; this store is that seam expressed as a SegmentStore, so a
// frame table (through StorePageIo and the async worker pool) and the scan
// bench can run over real area files with the storage layer's CRC/LSN
// trailer envelope applied by ReadPages/WritePages.
//
// Runs may span extents and areas at this interface; they are split into
// per-extent chunks before hitting StorageArea (whose runs cannot cross an
// extent boundary).
#ifndef BESS_STORAGE_AREA_STORE_H_
#define BESS_STORAGE_AREA_STORE_H_

#include <cstdint>
#include <unordered_map>

#include "storage/storage_area.h"
#include "vm/segment_store.h"

namespace bess {

class AreaSegmentStore : public SegmentStore {
 public:
  AreaSegmentStore() = default;

  /// Registers `area` to serve (db, area_id) fetches. Not thread-safe
  /// against concurrent I/O: register everything before use. `area` must
  /// outlive this store.
  void AddArea(uint16_t db, uint16_t area_id, StorageArea* area);

  /// Slotted segment images live behind the mapper's store, not at the raw
  /// area level; this store only serves page runs.
  Status FetchSlotted(SegmentId id, void* buf, uint32_t* page_count) override;

  Status FetchPages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, void* buf) override;
  Status WritePages(uint16_t db, uint16_t area, PageId first,
                    uint32_t page_count, const void* buf) override;

 private:
  StorageArea* Find(uint16_t db, uint16_t area_id) const;

  /// (db << 16 | area) -> area file.
  std::unordered_map<uint32_t, StorageArea*> areas_;
};

}  // namespace bess

#endif  // BESS_STORAGE_AREA_STORE_H_
