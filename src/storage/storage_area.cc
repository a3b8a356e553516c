#include "storage/storage_area.h"

#include <cstring>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "os/fault_injection.h"
#include "util/crc32c.h"
#include "util/slice.h"

namespace bess {
namespace {

constexpr uint32_t kAreaMagic = 0xBE550A3Au;
constexpr uint32_t kMetaMagic = 0xBE55E7E0u;

static_assert(kTrailerRegionOffset + kTrailerRegionBytes <= kPageSize,
              "allocation map + page trailer table must fit in one meta page");

/// Deterministic bit position for an injected bit_rot flip: a function of
/// the page id alone, so a test can predict (and re-injure) the same bit.
inline size_t BitRotBit(PageId page) {
  return (static_cast<uint64_t>(page) * 2654435761u + 17) % (kPageSize * 8);
}

}  // namespace

// Area header (physical page 0) layout:
//   [0]  u32 magic
//   [4]  u32 page_size
//   [8]  u32 pages_per_extent
//   [12] u32 extent_count
//   [16] u16 area_id
struct StorageArea::AreaHeader {
  uint32_t magic;
  uint32_t page_size;
  uint32_t pages_per_extent;
  uint32_t extent_count;
  uint16_t area_id;
};

uint64_t StorageArea::PhysicalOffset(PageId page) const {
  const uint64_t extent = page / kPagesPerExtent;
  const uint64_t within = page % kPagesPerExtent;
  const uint64_t physical_page =
      1 + extent * (kPagesPerExtent + 1) + 1 + within;
  return physical_page * kPageSize;
}

uint64_t StorageArea::ExtentMetaOffset(uint32_t extent) const {
  const uint64_t physical_page =
      1 + static_cast<uint64_t>(extent) * (kPagesPerExtent + 1);
  return physical_page * kPageSize;
}

Result<std::unique_ptr<StorageArea>> StorageArea::Create(
    const std::string& path, uint16_t area_id, uint32_t initial_extents) {
  if (initial_extents == 0) {
    return Status::InvalidArgument("area needs at least one extent");
  }
  if (File::Exists(path)) {
    BESS_RETURN_IF_ERROR(File::Remove(path));
  }
  BESS_ASSIGN_OR_RETURN(File file, File::Open(path));
  auto area =
      std::unique_ptr<StorageArea>(new StorageArea(std::move(file), area_id));
  std::lock_guard<std::mutex> guard(area->mutex_);
  for (uint32_t i = 0; i < initial_extents; ++i) {
    BESS_RETURN_IF_ERROR(area->AddExtentLocked());
  }
  BESS_RETURN_IF_ERROR(area->WriteHeaderLocked());
  BESS_RETURN_IF_ERROR(area->file_.Sync());
  return area;
}

Result<std::unique_ptr<StorageArea>> StorageArea::Open(
    const std::string& path) {
  BESS_ASSIGN_OR_RETURN(File file, File::Open(path, /*create=*/false));
  char header_page[kPageSize];
  BESS_RETURN_IF_ERROR(file.ReadAt(0, header_page, kPageSize));
  Decoder dec(Slice(header_page, kPageSize));
  const uint32_t magic = dec.GetFixed32();
  const uint32_t page_size = dec.GetFixed32();
  const uint32_t pages_per_extent = dec.GetFixed32();
  const uint32_t extent_count = dec.GetFixed32();
  const uint16_t area_id = dec.GetFixed16();
  if (magic != kAreaMagic) {
    return Status::Corruption("not a BeSS storage area: " + path);
  }
  if (page_size != kPageSize || pages_per_extent != kPagesPerExtent) {
    return Status::NotSupported("area geometry mismatch in " + path);
  }
  auto area =
      std::unique_ptr<StorageArea>(new StorageArea(std::move(file), area_id));
  std::lock_guard<std::mutex> guard(area->mutex_);
  for (uint32_t e = 0; e < extent_count; ++e) {
    char meta[kPageSize];
    BESS_RETURN_IF_ERROR(
        area->file_.ReadAt(area->ExtentMetaOffset(e), meta, kPageSize));
    Decoder mdec(Slice(meta, kPageSize));
    if (mdec.GetFixed32() != kMetaMagic) {
      return Status::Corruption("bad extent meta magic in " + path);
    }
    const uint32_t stored_crc = mdec.GetFixed32();
    const uint8_t* map = reinterpret_cast<const uint8_t*>(meta) + 8;
    if (crc32c::Value(map, kPagesPerExtent) != crc32c::Unmask(stored_crc)) {
      return Status::Corruption("extent meta checksum mismatch in " + path);
    }
    BESS_ASSIGN_OR_RETURN(BuddyAllocator alloc,
                          BuddyAllocator::FromMap(map, kPagesPerExtent));
    area->extents_.push_back(
        std::make_unique<BuddyAllocator>(std::move(alloc)));
    // The trailer region is checksummed separately from the map: a torn
    // trailer write (or a pre-trailer-format area) degrades this extent's
    // pages to unstamped instead of refusing to open.
    if (!area->integrity_.DecodeExtent(e, meta + kTrailerRegionOffset)) {
      BESS_COUNT("page.trailer.reset");
    }
  }
  return area;
}

Status StorageArea::AddExtentLocked() {
  const uint32_t extent = static_cast<uint32_t>(extents_.size());
  extents_.push_back(std::make_unique<BuddyAllocator>(kPagesPerExtent));
  integrity_.AddExtent();
  // Size the file to cover the new extent's last data page.
  const uint64_t end = PhysicalOffset((extent + 1) * kPagesPerExtent - 1) +
                       kPageSize;
  BESS_RETURN_IF_ERROR(file_.Truncate(end));
  BESS_RETURN_IF_ERROR(FlushExtentMetaLocked(extent));
  return WriteHeaderLocked();
}

Status StorageArea::FlushExtentMetaLocked(uint32_t extent) {
  char meta[kPageSize];
  memset(meta, 0, sizeof(meta));
  uint8_t* map = reinterpret_cast<uint8_t*>(meta) + 8;
  extents_[extent]->SaveMap(map);
  EncodeFixed32(meta, kMetaMagic);
  EncodeFixed32(meta + 4, crc32c::Mask(crc32c::Value(map, kPagesPerExtent)));
  // A full-meta rewrite must carry the current trailer table too, or it
  // would wipe every stamp in the extent.
  integrity_.EncodeExtent(extent, meta + kTrailerRegionOffset);
  return file_.WriteAt(ExtentMetaOffset(extent), meta, kPageSize);
}

Status StorageArea::WriteHeaderLocked() {
  char page[kPageSize];
  memset(page, 0, sizeof(page));
  EncodeFixed32(page, kAreaMagic);
  EncodeFixed32(page + 4, kPageSize);
  EncodeFixed32(page + 8, kPagesPerExtent);
  EncodeFixed32(page + 12, static_cast<uint32_t>(extents_.size()));
  EncodeFixed16(page + 16, area_id_);
  return file_.WriteAt(0, page, kPageSize);
}

uint32_t StorageArea::extent_count() const {
  return static_cast<uint32_t>(extents_.size());
}

Result<DiskSegment> StorageArea::AllocSegment(uint32_t npages) {
  if (npages == 0 || npages > kPagesPerExtent) {
    return Status::InvalidArgument("segment size " + std::to_string(npages) +
                                   " pages exceeds extent capacity");
  }
  std::lock_guard<std::mutex> guard(mutex_);
  for (uint32_t e = 0; e < extents_.size(); ++e) {
    Result<uint32_t> page = extents_[e]->Allocate(npages);
    if (page.ok()) {
      BESS_RETURN_IF_ERROR(FlushExtentMetaLocked(e));
      DiskSegment seg;
      seg.first_page = e * kPagesPerExtent + *page;
      seg.page_count = extents_[e]->BlockSize(*page);
      return seg;
    }
    if (!page.status().IsNoSpace()) return page.status();
  }
  // All extents full: expand by one extent (paper §2).
  BESS_RETURN_IF_ERROR(AddExtentLocked());
  const uint32_t e = static_cast<uint32_t>(extents_.size()) - 1;
  BESS_ASSIGN_OR_RETURN(uint32_t page, extents_[e]->Allocate(npages));
  BESS_RETURN_IF_ERROR(FlushExtentMetaLocked(e));
  DiskSegment seg;
  seg.first_page = e * kPagesPerExtent + page;
  seg.page_count = extents_[e]->BlockSize(page);
  return seg;
}

Status StorageArea::FreeSegment(PageId first_page) {
  std::lock_guard<std::mutex> guard(mutex_);
  const uint32_t e = first_page / kPagesPerExtent;
  if (e >= extents_.size()) {
    return Status::InvalidArgument("free of page beyond area end");
  }
  // BlockSize is only answerable while the block is still allocated.
  const uint32_t npages = extents_[e]->BlockSize(first_page % kPagesPerExtent);
  BESS_RETURN_IF_ERROR(extents_[e]->Free(first_page % kPagesPerExtent));
  // Freed pages carry no promises: drop their stamps (and any quarantine) so
  // a future reallocation starts unstamped instead of tripping over stale
  // CRCs of the previous tenant.
  for (uint32_t i = 0; i < npages; ++i) integrity_.Clear(first_page + i);
  return FlushExtentMetaLocked(e);
}

uint32_t StorageArea::SegmentPages(PageId first_page) {
  std::lock_guard<std::mutex> guard(mutex_);
  const uint32_t e = first_page / kPagesPerExtent;
  if (e >= extents_.size()) return 0;
  return extents_[e]->BlockSize(first_page % kPagesPerExtent);
}

Status StorageArea::ReadPages(PageId first_page, uint32_t page_count,
                              void* buf) {
  if (page_count == 0) return Status::OK();
  const uint32_t first_extent = first_page / kPagesPerExtent;
  const uint32_t last_extent = (first_page + page_count - 1) / kPagesPerExtent;
  if (first_extent != last_extent) {
    return Status::InvalidArgument("page run crosses extent boundary");
  }
  for (uint32_t i = 0; i < page_count; ++i) {
    if (integrity_.IsQuarantined(first_page + i)) {
      BESS_COUNT("page.quarantine.hit");
      return Status::Corruption("page " + std::to_string(first_page + i) +
                                " is quarantined in " + file_.path());
    }
  }
  BESS_RETURN_IF_ERROR(file_.ReadAt(PhysicalOffset(first_page), buf,
                                    static_cast<size_t>(page_count) *
                                        kPageSize));
  for (uint32_t i = 0; i < page_count; ++i) {
    char* page_buf = static_cast<char*>(buf) +
                     static_cast<size_t>(i) * kPageSize;
    BESS_RETURN_IF_ERROR(
        VerifyOrRecoverPage(first_page + i, page_buf, nullptr));
  }
  return Status::OK();
}

Status StorageArea::VerifyOrRecoverPage(PageId page, char* page_buf,
                                        VerifyOutcome* outcome) {
  if (outcome != nullptr) *outcome = VerifyOutcome::kClean;
  if (integrity_.Verify(page, page_buf) != PageIntegrity::Verdict::kMismatch) {
    return Status::OK();
  }
  BESS_COUNT("page.verify.fail");
  // One re-read: a transient torn view (read racing a concurrent write-back)
  // resolves here without invoking media repair.
  Status reread = file_.ReadAt(PhysicalOffset(page), page_buf, kPageSize);
  if (reread.ok() &&
      integrity_.Verify(page, page_buf) != PageIntegrity::Verdict::kMismatch) {
    BESS_COUNT("page.reread.ok");
    if (outcome != nullptr) *outcome = VerifyOutcome::kRereadOk;
    return Status::OK();
  }
  // Media repair: ask the WAL for the exact image this trailer was stamped
  // from. Anything less than a byte-exact (CRC-verified) match is rejected —
  // a plausible-but-different image is worse than an honest kCorruption.
  RepairHandler repair;
  {
    std::lock_guard<std::mutex> guard(repair_mutex_);
    repair = repair_;
  }
  const uint32_t expected = integrity_.expected_crc(page);
  if (repair) {
    std::string image;
    Status st = repair(page, expected, &image);
    if (st.ok() && image.size() == kPageSize &&
        crc32c::Mask(PageCrc(area_id_, page, image.data())) == expected) {
      // Rewrite the healthy image in place and make it durable before
      // reporting success; the trailer already matches it.
      st = file_.WriteAt(PhysicalOffset(page), image.data(), kPageSize);
      if (st.ok()) st = file_.Sync();
      if (st.ok()) {
        memcpy(page_buf, image.data(), kPageSize);
        BESS_COUNT("page.repair.ok");
        if (outcome != nullptr) *outcome = VerifyOutcome::kRepaired;
        return Status::OK();
      }
    }
  }
  // No usable image: quarantine. The database stays open; only this page
  // answers kCorruption until something rewrites it wholesale.
  integrity_.Quarantine(page);
  BESS_COUNT("page.quarantined");
  if (outcome != nullptr) *outcome = VerifyOutcome::kQuarantined;
  return Status::Corruption("page " + std::to_string(page) +
                            " failed verification and could not be repaired"
                            " in " + file_.path());
}

Status StorageArea::WriteOnePage(PageId page, const char* bytes,
                                 uint64_t lsn) {
  const uint64_t off = PhysicalOffset(page);
  if (fault::Armed()) {
    fault::FaultOutcome rot = fault::FaultRegistry::Instance().EvaluateIo(
        "page.bitrot", file_.path(), kPageSize);
    if (rot.bit_rot) {
      // The lying disk: persist a flipped bit, report success, and stamp the
      // trailer with the CRC of what the caller *intended* — exactly the
      // state a later read must detect.
      char rotten[kPageSize];
      memcpy(rotten, bytes, kPageSize);
      const size_t bit = BitRotBit(page);
      rotten[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      BESS_RETURN_IF_ERROR(file_.WriteAtUnchecked(off, rotten, kPageSize));
      integrity_.Stamp(page, bytes, lsn);
      integrity_.Unquarantine(page);
      return Status::OK();
    }
    fault::FaultOutcome torn = fault::FaultRegistry::Instance().EvaluateIo(
        "page.torn", file_.path(), kPageSize);
    if (torn.bytes_allowed < kPageSize) {
      if (torn.bytes_allowed > 0) {
        BESS_RETURN_IF_ERROR(
            file_.WriteAtUnchecked(off, bytes, torn.bytes_allowed));
      }
      integrity_.Stamp(page, bytes, lsn);
      integrity_.Unquarantine(page);
      return Status::OK();
    }
  }
  BESS_RETURN_IF_ERROR(file_.WriteAt(off, bytes, kPageSize));
  // Stamp only after the write succeeded: a failed write leaves the old
  // trailer, which still describes what is actually on disk.
  integrity_.Stamp(page, bytes, lsn);
  integrity_.Unquarantine(page);
  return Status::OK();
}

Status StorageArea::WritePages(PageId first_page, uint32_t page_count,
                               const void* buf, uint64_t lsn) {
  if (page_count == 0) return Status::OK();
  const uint32_t first_extent = first_page / kPagesPerExtent;
  const uint32_t last_extent = (first_page + page_count - 1) / kPagesPerExtent;
  if (first_extent != last_extent) {
    return Status::InvalidArgument("page run crosses extent boundary");
  }
  if (!fault::Armed()) {
    BESS_RETURN_IF_ERROR(file_.WriteAt(PhysicalOffset(first_page), buf,
                                       static_cast<size_t>(page_count) *
                                           kPageSize));
    for (uint32_t i = 0; i < page_count; ++i) {
      const char* bytes = static_cast<const char*>(buf) +
                          static_cast<size_t>(i) * kPageSize;
      integrity_.Stamp(first_page + i, bytes, lsn);
      integrity_.Unquarantine(first_page + i);
    }
    return Status::OK();
  }
  // Faults armed: go page-at-a-time so bit_rot / torn_page can target
  // individual pages (and ordinary file.writeat faults keep working).
  for (uint32_t i = 0; i < page_count; ++i) {
    const char* bytes = static_cast<const char*>(buf) +
                        static_cast<size_t>(i) * kPageSize;
    BESS_RETURN_IF_ERROR(WriteOnePage(first_page + i, bytes, lsn));
  }
  return Status::OK();
}

Status StorageArea::FlushDirtyTrailers() {
  // Trailer regions ride in the extent meta page but are flushed lazily:
  // once per Sync instead of once per page write. Written before the
  // fdatasync so a trailer never describes data that was not also synced.
  for (uint32_t extent : integrity_.DirtyExtents()) {
    char region[kTrailerRegionBytes];
    integrity_.EncodeExtent(extent, region);
    BESS_RETURN_IF_ERROR(
        file_.WriteAt(ExtentMetaOffset(extent) + kTrailerRegionOffset, region,
                      kTrailerRegionBytes));
  }
  return Status::OK();
}

Status StorageArea::Sync() {
  std::unique_lock<std::mutex> lk(sync_mutex_);
  // Any generation that *starts* after this point covers every write this
  // caller completed before calling Sync; an in-flight generation may not.
  const uint64_t need = sync_started_gen_ + 1;
  bool led = false;
  while (sync_done_gen_ < need) {
    if (!sync_in_flight_) {
      sync_in_flight_ = true;
      const uint64_t gen = ++sync_started_gen_;  // gen >= need
      led = true;
      lk.unlock();
      Status s = FlushDirtyTrailers();
      if (s.ok()) {
        BESS_SPAN("storage.sync");
        s = file_.Sync();
      }
      lk.lock();
      sync_done_gen_ = gen;
      sync_done_status_ = s;
      sync_in_flight_ = false;
      sync_cv_.notify_all();
    } else {
      sync_cv_.wait(lk);
    }
  }
  // The loop exits only once a generation started after entry finished, so
  // sync_done_status_ is from a sync that covered this caller's writes.
  if (!led) BESS_COUNT("storage.sync.coalesced");
  return sync_done_status_;
}

void StorageArea::set_repair_handler(RepairHandler handler) {
  std::lock_guard<std::mutex> guard(repair_mutex_);
  repair_ = std::move(handler);
}

Status StorageArea::Scrub(ScrubReport* report) {
  const uint32_t nextents = extent_count();
  char page_buf[kPageSize];
  for (uint32_t e = 0; e < nextents; ++e) {
    for (uint32_t i = 0; i < kPagesPerExtent; ++i) {
      const PageId page = e * kPagesPerExtent + i;
      if (integrity_.IsQuarantined(page)) {
        // Already known-bad; keep it in the report but skip the I/O.
        report->quarantined++;
        continue;
      }
      if (!integrity_.IsStamped(page)) continue;  // never written: no claim
      report->pages_scanned++;
      BESS_COUNT("scrub.pages");
      BESS_RETURN_IF_ERROR(
          file_.ReadAt(PhysicalOffset(page), page_buf, kPageSize));
      VerifyOutcome outcome = VerifyOutcome::kClean;
      Status st = VerifyOrRecoverPage(page, page_buf, &outcome);
      switch (outcome) {
        case VerifyOutcome::kClean:
          break;
        case VerifyOutcome::kRereadOk:
          report->verify_failures++;
          break;
        case VerifyOutcome::kRepaired:
          report->verify_failures++;
          report->repaired++;
          break;
        case VerifyOutcome::kQuarantined:
          report->verify_failures++;
          report->quarantined++;
          break;
      }
      // Quarantine is a per-page verdict, not a scrub failure: keep
      // sweeping. Only real I/O errors abort the pass.
      if (!st.ok() && !st.IsCorruption()) return st;
    }
  }
  return Status::OK();
}

uint64_t StorageArea::FreePages() {
  std::lock_guard<std::mutex> guard(mutex_);
  uint64_t total = 0;
  for (const auto& e : extents_) total += e->free_pages();
  return total;
}

double StorageArea::Fragmentation() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (extents_.empty()) return 0.0;
  double sum = 0;
  for (const auto& e : extents_) sum += e->Fragmentation();
  return sum / static_cast<double>(extents_.size());
}

}  // namespace bess
