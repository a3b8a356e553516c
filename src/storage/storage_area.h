// Storage areas: the physical level of a BeSS database.
//
// "At the physical level, the database consists of a number of storage
// areas, which are UNIX files or disk raw partitions. Storage areas are
// partitioned into a number of extents, and allocation of disk segments from
// one of these extents is based on the binary buddy system. Storage areas
// that correspond to UNIX files may expand in size by one extent at a time."
// (paper §2)
//
// On-disk layout (physical pages of kPageSize bytes):
//   page 0:                      area header
//   then per extent i:           1 meta page (buddy allocation map, CRC)
//                                kPagesPerExtent data pages
//
// Logical PageIds address data pages only and are stable: extent i covers
// logical pages [i*kPagesPerExtent, (i+1)*kPagesPerExtent).
#ifndef BESS_STORAGE_STORAGE_AREA_H_
#define BESS_STORAGE_STORAGE_AREA_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "os/file.h"
#include "storage/buddy.h"
#include "storage/page_io.h"
#include "util/config.h"
#include "util/status.h"

namespace bess {

/// Logical page number within one storage area.
using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xFFFFFFFFu;

/// Globally unique page address: database + area + page. This is the
/// granule keyed by the lock manager, the WAL, and the shared cache.
struct PageAddr {
  uint16_t db = 0;
  uint16_t area = 0;
  PageId page = kInvalidPage;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(db) << 48) |
           (static_cast<uint64_t>(area) << 32) | page;
  }
  static PageAddr Unpack(uint64_t v) {
    return PageAddr{static_cast<uint16_t>(v >> 48),
                    static_cast<uint16_t>((v >> 32) & 0xFFFF),
                    static_cast<PageId>(v & 0xFFFFFFFFu)};
  }
  bool operator==(const PageAddr& o) const {
    return db == o.db && area == o.area && page == o.page;
  }
};

/// A contiguous run of logical pages allocated as one unit.
struct DiskSegment {
  PageId first_page = kInvalidPage;
  uint32_t page_count = 0;
};

/// One storage area backed by a UNIX file. Thread-safe.
class StorageArea {
 public:
  /// Media-repair callback: asked for a byte-exact image of `page` whose
  /// masked trailer CRC is `expected_crc` (the WAL repair path in
  /// wal/recovery.h fits this signature). Must fill `image` with kPageSize
  /// bytes; any non-OK status means "no usable image".
  using RepairHandler =
      std::function<Status(PageId page, uint32_t expected_crc,
                           std::string* image)>;

  /// Creates a new area file with `initial_extents` extents (>= 1).
  static Result<std::unique_ptr<StorageArea>> Create(
      const std::string& path, uint16_t area_id, uint32_t initial_extents = 1);

  /// Opens an existing area, rebuilding allocator state from meta pages.
  static Result<std::unique_ptr<StorageArea>> Open(const std::string& path);

  uint16_t area_id() const { return area_id_; }
  uint32_t extent_count() const;
  const std::string& path() const { return file_.path(); }

  /// Allocates a disk segment of at least `npages` contiguous pages,
  /// growing the area by one extent at a time when all extents are full.
  /// Segments never span extents (buddy blocks cannot).
  Result<DiskSegment> AllocSegment(uint32_t npages);

  /// Frees a segment previously returned by AllocSegment. `first_page`
  /// must be the segment head.
  Status FreeSegment(PageId first_page);

  /// Number of pages the block headed at `first_page` occupies (its rounded
  /// size); 0 if not an allocated head.
  uint32_t SegmentPages(PageId first_page);

  /// Reads `page_count` logical pages starting at `first_page` into `buf`
  /// (the run must not cross an extent boundary). Each stamped page is
  /// verified against its trailer; a mismatch triggers one re-read, then the
  /// repair handler, then quarantine + kCorruption (DESIGN.md §7).
  Status ReadPages(PageId first_page, uint32_t page_count, void* buf);

  /// Writes `page_count` logical pages starting at `first_page` from `buf`,
  /// stamping each page's trailer with `lsn` (0 = non-WAL write). A full
  /// overwrite lifts any quarantine on the written pages.
  Status WritePages(PageId first_page, uint32_t page_count, const void* buf,
                    uint64_t lsn = 0);

  Status Sync();

  /// Installs the WAL-backed media-repair callback (see RepairHandler).
  void set_repair_handler(RepairHandler handler);

  /// Sweeps every stamped page in every extent, verifying (and repairing or
  /// quarantining, like ReadPages) each one. Accumulates into `report`.
  Status Scrub(ScrubReport* report);

  bool IsQuarantined(PageId page) const { return integrity_.IsQuarantined(page); }
  uint64_t QuarantinedPages() const { return integrity_.quarantined_count(); }

  /// Total free pages across extents (statistics / benches).
  uint64_t FreePages();
  /// Mean external fragmentation across extents.
  double Fragmentation();

 private:
  struct AreaHeader;

  enum class VerifyOutcome { kClean, kRereadOk, kRepaired, kQuarantined };

  StorageArea(File file, uint16_t area_id)
      : file_(std::move(file)), area_id_(area_id), integrity_(area_id) {}

  Status AddExtentLocked();
  Status FlushExtentMetaLocked(uint32_t extent);
  Status WriteHeaderLocked();
  uint64_t PhysicalOffset(PageId page) const;
  uint64_t ExtentMetaOffset(uint32_t extent) const;
  /// Verify-or-recover one page already read into `page_buf`; on mismatch
  /// re-reads once, then tries the repair handler, then quarantines.
  Status VerifyOrRecoverPage(PageId page, char* page_buf,
                             VerifyOutcome* outcome);
  Status WriteOnePage(PageId page, const char* bytes, uint64_t lsn);
  /// Flushes trailer regions of extents with unflushed stamps (called from
  /// Sync, before the fdatasync, so trailers never outrun their data).
  Status FlushDirtyTrailers();

  File file_;
  uint16_t area_id_;
  std::mutex mutex_;
  /// Sync coalescing (the force path's group commit, DESIGN.md §8): one
  /// fdatasync covers every write completed before it started. Callers that
  /// arrive while a sync generation is in flight wait for the next one —
  /// which one of them leads — instead of queueing their own fsync.
  std::mutex sync_mutex_;
  std::condition_variable sync_cv_;
  bool sync_in_flight_ = false;
  uint64_t sync_started_gen_ = 0;
  uint64_t sync_done_gen_ = 0;
  Status sync_done_status_;
  std::vector<std::unique_ptr<BuddyAllocator>> extents_;
  PageIntegrity integrity_;
  std::mutex repair_mutex_;
  RepairHandler repair_;
};

}  // namespace bess

#endif  // BESS_STORAGE_STORAGE_AREA_H_
