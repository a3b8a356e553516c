#include "index/index.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "os/fault_injection.h"

namespace bess {

namespace {
/// Node pages are allocated from the area in chunks of this many pages and
/// handed out by the meta page's cursor. The buddy update for a fresh chunk
/// is synchronous; the cursor advance rides the SMO record that consumed the
/// chunk, so a crash in between at worst leaks one chunk.
constexpr uint32_t kIndexAllocChunk = 64;
}  // namespace

// Synchronous page transfer for the index area. Cache keys are packed
// PageAddrs whose (db, area) are fixed per index, so runs unpack once and
// split only at extent boundaries (ReadPages/WritePages runs must not cross
// one). Write-back stamps LSN 0 trailers like every cache write-back; the
// WAL-before-data gate is the injected callback.
class BTreeIndex::PageIoImpl : public FrameTable::PageIo {
 public:
  PageIoImpl(StorageArea* area, std::function<Status(uint64_t)> wal_gate)
      : area_(area), gate_(std::move(wal_gate)) {}

  Status Fetch(uint64_t key, void* buf) override {
    return area_->ReadPages(PageAddr::Unpack(key).page, 1, buf);
  }
  Status Write(uint64_t key, const void* buf) override {
    return area_->WritePages(PageAddr::Unpack(key).page, 1, buf, 0);
  }
  Status FetchRun(uint64_t first_key, uint32_t count, void* buf) override {
    return RunOp(PageAddr::Unpack(first_key).page, count, buf, false);
  }
  Status WriteRun(uint64_t first_key, uint32_t count,
                  const void* buf) override {
    return RunOp(PageAddr::Unpack(first_key).page, count,
                 const_cast<void*>(buf), true);
  }
  Status EnsureWalDurable(uint64_t lsn) override {
    if (lsn == 0 || !gate_) return Status::OK();
    return gate_(lsn);
  }

 private:
  Status RunOp(PageId first, uint32_t count, void* buf, bool write) {
    char* p = static_cast<char*>(buf);
    while (count > 0) {
      const uint32_t left_in_extent =
          kPagesPerExtent - (first % kPagesPerExtent);
      const uint32_t n = std::min(count, left_in_extent);
      if (write) {
        BESS_RETURN_IF_ERROR(area_->WritePages(first, n, p, 0));
      } else {
        BESS_RETURN_IF_ERROR(area_->ReadPages(first, n, p));
      }
      first += n;
      count -= n;
      p += static_cast<size_t>(n) * kPageSize;
    }
    return Status::OK();
  }

  StorageArea* area_;
  std::function<Status(uint64_t)> gate_;
};

// Heap frames with real write-back latching. The frame core's lifecycle
// contract says PrepareForWriteback latches the frame against writers for
// the length of the flush I/O (the shared cache does the same with its shm
// slot latches); plain HeapPlacement skips it because its users never
// mutate a frame that can be flushed concurrently. Index leaves are
// steal/no-force — the bgwriter flushes them while Put/Delete/undo rewrite
// them in place — so mutators take the same latch (LockFrame) around
// bytes + MarkDirty, and a flush never reads a half-applied image.
class BTreeIndex::LatchedPlacement : public HeapPlacement {
 public:
  explicit LatchedPlacement(uint32_t frame_count)
      : HeapPlacement(frame_count),
        latches_(std::make_unique<Latch[]>(frame_count)),
        held_(std::make_unique<std::atomic<uint8_t>[]>(frame_count)) {
    for (uint32_t f = 0; f < frame_count; ++f) held_[f].store(0);
  }
  Status PrepareForWriteback(uint32_t f) override {
    latches_[f].Lock();
    held_[f].store(1, std::memory_order_release);
    return Status::OK();
  }
  Status FinishWriteback(uint32_t f, bool ok) override {
    (void)ok;
    // Guarded like SharedPlacement: a batch unwind may finish frames it
    // never prepared.
    if (held_[f].exchange(0, std::memory_order_acq_rel) != 0) {
      latches_[f].Unlock();
    }
    return Status::OK();
  }
  void LockFrame(uint32_t f) { latches_[f].Lock(); }
  void UnlockFrame(uint32_t f) { latches_[f].Unlock(); }

 private:
  std::unique_ptr<Latch[]> latches_;
  std::unique_ptr<std::atomic<uint8_t>[]> held_;
};

Status BTreeIndex::Format(StorageArea* area) {
  auto meta_seg = area->AllocSegment(1);
  if (!meta_seg.ok()) return meta_seg.status();
  if (meta_seg->first_page != 0) {
    // Recovery relies on the meta page living at page 0 (it opens index
    // runtimes before the catalog is loaded) — only a fresh area qualifies.
    return Status::InvalidArgument("index area is not fresh");
  }
  auto chunk = area->AllocSegment(kIndexAllocChunk);
  if (!chunk.ok()) return chunk.status();

  std::vector<char> page(kPageSize);
  const PageId root = chunk->first_page;
  NodeView::Init(page.data(), 0);  // empty root leaf
  BESS_RETURN_IF_ERROR(area->WritePages(root, 1, page.data(), 0));
  MetaView::Init(page.data(), root, root, root + 1,
                 chunk->first_page + chunk->page_count);
  BESS_RETURN_IF_ERROR(area->WritePages(0, 1, page.data(), 0));
  return area->Sync();
}

BTreeIndex::BTreeIndex(StorageArea* area, const Options& opts)
    : area_(area), opts_(opts), scratch_(6 * kPageSize) {}

BTreeIndex::~BTreeIndex() {
  if (table_ != nullptr) table_->Stop();
  if (aio_ != nullptr) aio_->Shutdown();
}

void BTreeIndex::Detach() {
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return;
  detached_ = true;
  // Stop() joins the bgwriter and drains in-flight async ops — after it
  // returns, nothing in this runtime can invoke the database-capturing
  // callbacks (on_cleaned, ensure_wal_durable, append_smo) again; the
  // foreground entry points are gated by detached_ under the latch.
  if (table_ != nullptr) table_->Stop();
  if (aio_ != nullptr) aio_->Shutdown();
}

Status BTreeIndex::FlushDirty() {
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  return table_->FlushDirty();
}

Status BTreeIndex::InitRuntime() {
  if (opts_.cache_frames < 8) opts_.cache_frames = 8;
  io_ = std::make_unique<PageIoImpl>(area_, opts_.ensure_wal_durable);
  placement_ = std::make_unique<LatchedPlacement>(opts_.cache_frames);
  if (opts_.use_async) {
    aio_ = std::make_unique<AsyncPageIo>(io_.get(), opts_.async_workers);
  }
  FrameTable::Options fo;
  fo.frame_count = opts_.cache_frames;
  fo.enable_bgwriter = opts_.enable_bgwriter;
  fo.bgwriter_interval_ms = opts_.bgwriter_interval_ms;
  fo.async_io = aio_.get();
  fo.async_queue_depth = opts_.async_queue_depth;
  fo.on_cleaned = opts_.on_cleaned;
  table_ = std::make_unique<FrameTable>(fo, placement_.get(), io_.get());
  return table_->Init();
}

Result<std::unique_ptr<BTreeIndex>> BTreeIndex::Open(StorageArea* area,
                                                     const Options& opts) {
  std::unique_ptr<BTreeIndex> idx(new BTreeIndex(area, opts));
  BESS_RETURN_IF_ERROR(idx->InitRuntime());
  BESS_ASSIGN_OR_RETURN(Pin meta_pin, idx->FixPage(0));
  if (!MetaView(meta_pin.data).valid()) {
    return Status::Corruption("not an index area (bad meta page)");
  }
  return idx;
}

Result<BTreeIndex::Pin> BTreeIndex::FixPage(PageId page) {
  BESS_ASSIGN_OR_RETURN(FrameTable::FixResult r,
                        table_->Fix(PackPage(page), false, true));
  return Pin(table_.get(), r.frame, static_cast<char*>(r.data));
}

Status BTreeIndex::ApplyImage(PageId page, const char* image, Lsn lsn) {
  BESS_ASSIGN_OR_RETURN(FrameTable::FixResult r,
                        table_->Fix(PackPage(page), false, true));
  // Bytes + MarkDirty under the frame latch: write-back snapshots under
  // the same latch, so the flush I/O never reads a half-applied image and
  // its WAL gate sees the covering LSN.
  placement_->LockFrame(r.frame);
  memcpy(r.data, image, kPageSize);
  // Fixed clean then dirtied explicitly so clean→dirty records `lsn` as the
  // frame's recLSN (a for_write fix would leave it 0 = unknown).
  Status st = table_->MarkDirty(r.frame, lsn);
  placement_->UnlockFrame(r.frame);
  Status unpin = table_->Unpin(r.frame);
  return st.ok() ? unpin : st;
}

Result<PageId> BTreeIndex::AllocNodePage(MetaView* meta) {
  if (meta->alloc_next() >= meta->alloc_end()) {
    BESS_ASSIGN_OR_RETURN(DiskSegment seg,
                          area_->AllocSegment(kIndexAllocChunk));
    meta->set_alloc_next(seg.first_page);
    meta->set_alloc_end(seg.first_page + seg.page_count);
    BESS_COUNT("index.alloc.chunks");
  }
  const PageId p = meta->alloc_next();
  meta->set_alloc_next(p + 1);
  return p;
}

Status BTreeIndex::SplitChild(Pin* parent, PageId parent_id, Pin* child,
                              PageId child_id, Pin* meta_pin) {
  // Compose every post-SMO image in scratch; the cache is untouched until
  // the kIndexSmo record is on the log (WAL rule for multi-page atomicity).
  char* meta_img = scratch_.data();
  char* left_img = scratch_.data() + kPageSize;
  char* right_img = scratch_.data() + 2 * kPageSize;
  char* parent_img = scratch_.data() + 3 * kPageSize;

  memcpy(meta_img, meta_pin->data, kPageSize);
  MetaView meta(meta_img);
  BESS_ASSIGN_OR_RETURN(PageId right_id, AllocNodePage(&meta));

  NodeView src(child->data);
  const uint16_t n = src.count();
  if (n < 2) return Status::Internal("split of a near-empty index node");
  const uint16_t m = n / 2;

  NodeView::Init(left_img, src.level());
  NodeView::Init(right_img, src.level());
  NodeView left(left_img);
  NodeView right(right_img);
  std::string sep = src.key_at(m).ToString();
  if (src.is_leaf()) {
    for (uint16_t i = 0; i < m; ++i) {
      left.LeafInsert(i, src.key_at(i), src.leaf_val_at(i));
    }
    for (uint16_t i = m; i < n; ++i) {
      right.LeafInsert(static_cast<uint16_t>(i - m), src.key_at(i),
                       src.leaf_val_at(i));
    }
    left.set_next_leaf(right_id);
    right.set_next_leaf(src.next_leaf());
  } else {
    left.set_leftmost(src.leftmost());
    for (uint16_t i = 0; i < m; ++i) {
      left.InternalInsert(i, src.key_at(i), src.child_at(i));
    }
    // key(m) is pushed up; its child becomes the right node's leftmost.
    right.set_leftmost(src.child_at(m));
    for (uint16_t i = static_cast<uint16_t>(m + 1); i < n; ++i) {
      right.InternalInsert(static_cast<uint16_t>(i - m - 1), src.key_at(i),
                           src.child_at(i));
    }
  }

  const bool root_grow = parent == nullptr;
  if (root_grow) {
    BESS_ASSIGN_OR_RETURN(PageId new_root, AllocNodePage(&meta));
    NodeView::Init(parent_img, static_cast<uint8_t>(src.level() + 1));
    NodeView np(parent_img);
    np.set_leftmost(child_id);
    np.InternalInsert(0, sep, right_id);
    meta.set_root(new_root);
    meta.set_height(meta.height() + 1);
    parent_id = new_root;
  } else {
    memcpy(parent_img, parent->data, kPageSize);
    NodeView np(parent_img);
    if (!np.InternalInsert(np.LowerBound(sep), sep, right_id)) {
      return Status::Internal("index parent full despite preemptive split");
    }
  }

  BESS_RETURN_IF_ERROR(fault::Check("index.smo.log"));
  Lsn lsn = kNullLsn;
  if (opts_.append_smo) {
    LogRecord rec;
    rec.type = LogRecordType::kIndexSmo;
    rec.index_area = area_->area_id();
    auto addr = [this](PageId p) {
      return PageAddr{opts_.db, area_->area_id(), p};
    };
    rec.smo_pages.push_back({addr(0), std::string(meta_img, kPageSize)});
    rec.smo_pages.push_back(
        {addr(parent_id), std::string(parent_img, kPageSize)});
    rec.smo_pages.push_back({addr(child_id), std::string(left_img, kPageSize)});
    rec.smo_pages.push_back(
        {addr(right_id), std::string(right_img, kPageSize)});
    BESS_ASSIGN_OR_RETURN(lsn, opts_.append_smo(rec));
  }
  BESS_RETURN_IF_ERROR(fault::Check("index.smo.apply"));
  // A crash from here until all four land is repaired by redo (blind
  // reapplication of the record's images); apply order does not matter.
  BESS_RETURN_IF_ERROR(ApplyImage(0, meta_img, lsn));
  BESS_RETURN_IF_ERROR(ApplyImage(parent_id, parent_img, lsn));
  BESS_RETURN_IF_ERROR(ApplyImage(child_id, left_img, lsn));
  BESS_RETURN_IF_ERROR(ApplyImage(right_id, right_img, lsn));
  BESS_RETURN_IF_ERROR(fault::Check("index.smo.applied"));
  BESS_COUNT("index.smo");
  if (root_grow) BESS_COUNT("index.root_grow");
  return Status::OK();
}

Status BTreeIndex::DescendForWrite(Slice key, Pin* leaf, PageId* leaf_id) {
  // A root split restarts the descent; interior splits retry one level.
  // Height is tiny (≤4 for any realistic population), so bound hard.
  for (int attempt = 0; attempt < 64; ++attempt) {
    BESS_ASSIGN_OR_RETURN(Pin meta_pin, FixPage(0));
    MetaView meta(meta_pin.data);
    if (!meta.valid()) return Status::Corruption("bad index meta page");
    PageId cur_id = meta.root();
    BESS_ASSIGN_OR_RETURN(Pin cur, FixPage(cur_id));
    if (!NodeView(cur.data).valid()) {
      return Status::Corruption("bad index root node");
    }
    if (NodeView(cur.data).NeedsSplit()) {
      BESS_RETURN_IF_ERROR(SplitChild(nullptr, 0, &cur, cur_id, &meta_pin));
      continue;  // restart from the new root
    }
    while (!NodeView(cur.data).is_leaf()) {
      const PageId child_id = NodeView(cur.data).FindChild(key);
      BESS_ASSIGN_OR_RETURN(Pin child, FixPage(child_id));
      if (!NodeView(child.data).valid()) {
        return Status::Corruption("bad index node on descent");
      }
      if (NodeView(child.data).NeedsSplit()) {
        BESS_RETURN_IF_ERROR(
            SplitChild(&cur, cur_id, &child, child_id, &meta_pin));
        // The parent frame was updated in place; re-route the key — it may
        // now belong to the new right sibling.
        continue;
      }
      cur = std::move(child);
      cur_id = child_id;
    }
    *leaf = std::move(cur);
    *leaf_id = cur_id;
    return Status::OK();
  }
  return Status::Internal("index descent did not converge");
}

Status BTreeIndex::DescendForRead(Slice key, Pin* leaf, PageId* leaf_id) {
  BESS_ASSIGN_OR_RETURN(Pin meta_pin, FixPage(0));
  MetaView meta(meta_pin.data);
  if (!meta.valid()) return Status::Corruption("bad index meta page");
  PageId cur_id = meta.root();
  BESS_ASSIGN_OR_RETURN(Pin cur, FixPage(cur_id));
  while (true) {
    NodeView node(cur.data);
    if (!node.valid()) return Status::Corruption("bad index node on descent");
    if (node.is_leaf()) break;
    const PageId child_id = node.FindChild(key);
    BESS_ASSIGN_OR_RETURN(Pin child, FixPage(child_id));
    cur = std::move(child);
    cur_id = child_id;
  }
  *leaf = std::move(cur);
  *leaf_id = cur_id;
  return Status::OK();
}

Status BTreeIndex::Put(Slice key, Slice value, const RecordLogger& log) {
  if (key.empty() || key.size() > kIndexMaxKeyLen) {
    return Status::InvalidArgument("index key must be 1..256 bytes");
  }
  if (value.size() > kIndexMaxValLen) {
    return Status::InvalidArgument("index value must be <= 256 bytes");
  }
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  Pin leaf;
  PageId leaf_id = kInvalidPage;
  BESS_RETURN_IF_ERROR(DescendForWrite(key, &leaf, &leaf_id));

  char* img = scratch_.data() + 4 * kPageSize;
  memcpy(img, leaf.data, kPageSize);
  NodeView node(img);
  uint16_t pos = 0;
  const bool replaced = node.Find(key, &pos);
  std::string old;
  if (replaced) {
    old = node.leaf_val_at(pos).ToString();
    node.LeafRemove(pos);
  }
  if (!node.LeafInsert(pos, key, value)) {
    return Status::Internal("index leaf full despite preemptive split");
  }

  Lsn lsn = kNullLsn;
  if (log) {
    LogRecord rec;
    rec.type = LogRecordType::kIndexPut;
    rec.page = PageAddr{opts_.db, area_->area_id(), leaf_id};
    rec.after.assign(img, kPageSize);
    rec.index_area = area_->area_id();
    rec.ikey = key.ToString();
    rec.ival = value.ToString();
    rec.iold = old;
    rec.iold_present = replaced;
    BESS_ASSIGN_OR_RETURN(lsn, log(std::move(rec)));
  }
  placement_->LockFrame(leaf.frame);
  memcpy(leaf.data, img, kPageSize);
  Status dirty = table_->MarkDirty(leaf.frame, lsn);
  placement_->UnlockFrame(leaf.frame);
  BESS_RETURN_IF_ERROR(dirty);
  BESS_COUNT("index.put");
  return Status::OK();
}

Status BTreeIndex::Delete(Slice key, bool* existed, const RecordLogger& log) {
  if (key.empty() || key.size() > kIndexMaxKeyLen) {
    return Status::InvalidArgument("index key must be 1..256 bytes");
  }
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  Pin leaf;
  PageId leaf_id = kInvalidPage;
  BESS_RETURN_IF_ERROR(DescendForRead(key, &leaf, &leaf_id));

  char* img = scratch_.data() + 4 * kPageSize;
  memcpy(img, leaf.data, kPageSize);
  NodeView node(img);
  uint16_t pos = 0;
  const bool found = node.Find(key, &pos);
  if (existed != nullptr) *existed = found;
  if (!found) return Status::OK();  // nothing to log or apply
  std::string old = node.leaf_val_at(pos).ToString();
  node.LeafRemove(pos);

  Lsn lsn = kNullLsn;
  if (log) {
    LogRecord rec;
    rec.type = LogRecordType::kIndexDelete;
    rec.page = PageAddr{opts_.db, area_->area_id(), leaf_id};
    rec.after.assign(img, kPageSize);
    rec.index_area = area_->area_id();
    rec.ikey = key.ToString();
    rec.iold = std::move(old);
    rec.iold_present = true;
    BESS_ASSIGN_OR_RETURN(lsn, log(std::move(rec)));
  }
  placement_->LockFrame(leaf.frame);
  memcpy(leaf.data, img, kPageSize);
  Status dirty = table_->MarkDirty(leaf.frame, lsn);
  placement_->UnlockFrame(leaf.frame);
  BESS_RETURN_IF_ERROR(dirty);
  BESS_COUNT("index.delete");
  return Status::OK();
}

Result<bool> BTreeIndex::Get(Slice key, std::string* value) {
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  Pin leaf;
  PageId leaf_id = kInvalidPage;
  BESS_RETURN_IF_ERROR(DescendForRead(key, &leaf, &leaf_id));
  NodeView node(leaf.data);
  uint16_t pos = 0;
  BESS_COUNT("index.get");
  if (!node.Find(key, &pos)) return false;
  if (value != nullptr) {
    const Slice v = node.leaf_val_at(pos);
    value->assign(v.data(), v.size());
  }
  return true;
}

Status BTreeIndex::CollectLeaves(Slice lo, Slice hi,
                                 std::vector<PageId>* out) {
  BESS_ASSIGN_OR_RETURN(Pin meta_pin, FixPage(0));
  MetaView meta(meta_pin.data);
  if (!meta.valid()) return Status::Corruption("bad index meta page");

  std::function<Status(PageId)> walk = [&](PageId id) -> Status {
    BESS_ASSIGN_OR_RETURN(Pin pin, FixPage(id));
    NodeView node(pin.data);
    if (!node.valid()) return Status::Corruption("bad index node in scan");
    if (node.is_leaf()) {
      out->push_back(id);
      return Status::OK();
    }
    const uint16_t n = node.count();
    // Child c covers keys in [key(c-1), key(c)); c = 0 is the leftmost.
    auto child_index = [&](Slice k) {  // # separators <= k
      uint16_t a = 0, b = n;
      while (a < b) {
        const uint16_t mid = static_cast<uint16_t>((a + b) / 2);
        if (node.key_at(mid).compare(k) <= 0) {
          a = static_cast<uint16_t>(mid + 1);
        } else {
          b = mid;
        }
      }
      return a;
    };
    const uint16_t c_lo = lo.empty() ? 0 : child_index(lo);
    const uint16_t c_hi = hi.empty() ? n : child_index(hi);
    const bool kids_are_leaves = node.level() == 1;
    std::vector<PageId> kids;
    for (uint16_t c = c_lo; c <= c_hi; ++c) {
      kids.push_back(c == 0 ? node.leftmost()
                            : node.child_at(static_cast<uint16_t>(c - 1)));
    }
    pin.Release();  // keep pins O(height), not O(fanout^height)
    // Level-1 children are the leaves themselves: emit their ids without
    // fixing them, or this walk faults the whole leaf set in serially and
    // the push scan downstream has nothing left to prefetch.
    if (kids_are_leaves) {
      out->insert(out->end(), kids.begin(), kids.end());
      return Status::OK();
    }
    for (PageId kid : kids) BESS_RETURN_IF_ERROR(walk(kid));
    return Status::OK();
  };
  return walk(meta.root());
}

Status BTreeIndex::Scan(Slice lo, Slice hi, const EntryFn& fn) {
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  std::vector<PageId> leaves;
  BESS_RETURN_IF_ERROR(CollectLeaves(lo, hi, &leaves));
  std::vector<uint64_t> keys;
  keys.reserve(leaves.size());
  for (PageId p : leaves) keys.push_back(PackPage(p));
  // Bounds copied out: the consumer runs against pinned frame bytes and
  // must not rely on caller stack slices staying addressable mid-pipeline.
  const std::string lo_s = lo.ToString();
  const std::string hi_s = hi.ToString();
  BESS_COUNT("index.scan");
  return table_->ScanKeys(keys, [&](uint64_t, const void* page) -> Status {
    NodeView node(const_cast<char*>(static_cast<const char*>(page)));
    if (!node.valid() || !node.is_leaf()) {
      return Status::Corruption("index scan reached a non-leaf page");
    }
    const uint16_t n = node.count();
    uint16_t i = lo_s.empty() ? 0 : node.LowerBound(lo_s);
    for (; i < n; ++i) {
      const Slice k = node.key_at(i);
      if (!hi_s.empty() && k.compare(hi_s) > 0) break;
      BESS_RETURN_IF_ERROR(fn(k, node.leaf_val_at(i)));
      BESS_COUNT("index.scan.entries");
    }
    return Status::OK();
  });
}

Status BTreeIndex::UndoLogical(const LogRecord& rec, const ClrLogger& log_clr) {
  if (rec.type != LogRecordType::kIndexPut &&
      rec.type != LogRecordType::kIndexDelete) {
    return Status::InvalidArgument("not a logically undoable index record");
  }
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  const Slice key(rec.ikey);
  Pin leaf;
  PageId leaf_id = kInvalidPage;
  // Write descent: reversing a delete re-inserts and may need a split
  // (logged as its own SMO, even mid-undo).
  BESS_RETURN_IF_ERROR(DescendForWrite(key, &leaf, &leaf_id));

  char* img = scratch_.data() + 4 * kPageSize;
  memcpy(img, leaf.data, kPageSize);
  NodeView node(img);
  uint16_t pos = 0;
  const bool found = node.Find(key, &pos);
  if (rec.type == LogRecordType::kIndexPut && !rec.iold_present) {
    if (found) node.LeafRemove(pos);  // else: already reversed
  } else {
    // Put-over-old or delete: restore the previous value.
    if (found) node.LeafRemove(pos);
    if (!node.LeafInsert(pos, key, rec.iold)) {
      return Status::Internal("index leaf full during logical undo");
    }
  }

  Lsn lsn = kNullLsn;
  if (log_clr) {
    BESS_ASSIGN_OR_RETURN(
        lsn, log_clr(PageAddr{opts_.db, area_->area_id(), leaf_id},
                     std::string(img, kPageSize)));
  }
  placement_->LockFrame(leaf.frame);
  memcpy(leaf.data, img, kPageSize);
  Status dirty = table_->MarkDirty(leaf.frame, lsn);
  placement_->UnlockFrame(leaf.frame);
  BESS_RETURN_IF_ERROR(dirty);
  BESS_COUNT("index.undo");
  return Status::OK();
}

Status BTreeIndex::Validate(uint64_t* entries) {
  std::lock_guard<std::mutex> g(latch_);
  if (detached_) return Status::InvalidArgument("index detached from closed database");
  BESS_ASSIGN_OR_RETURN(Pin meta_pin, FixPage(0));
  MetaView meta(meta_pin.data);
  if (!meta.valid()) return Status::Corruption("bad index meta page");
  if (meta.height() == 0) return Status::Corruption("zero index height");

  uint64_t count = 0;
  std::string last_key;
  bool have_last = false;
  std::vector<std::pair<PageId, PageId>> chain;  // (leaf, its next pointer)

  // In-order walk carrying the separator window every key must fall in:
  // child c of an internal node holds keys in [key(c-1), key(c)).
  std::function<Status(PageId, uint32_t, std::string, bool, std::string, bool)>
      walk = [&](PageId id, uint32_t level, std::string lo, bool has_lo,
                 std::string hi, bool has_hi) -> Status {
    BESS_ASSIGN_OR_RETURN(Pin pin, FixPage(id));
    NodeView node(pin.data);
    if (!node.valid()) return Status::Corruption("bad node magic");
    if (node.level() != level) return Status::Corruption("level mismatch");
    const uint16_t n = node.count();
    for (uint16_t i = 0; i < n; ++i) {
      const Slice k = node.key_at(i);
      if (i > 0 && node.key_at(static_cast<uint16_t>(i - 1)).compare(k) >= 0) {
        return Status::Corruption("keys out of order within node");
      }
      if (has_lo && k.compare(lo) < 0) {
        return Status::Corruption("key below its separator window");
      }
      if (has_hi && k.compare(hi) >= 0) {
        return Status::Corruption("key above its separator window");
      }
    }
    if (node.is_leaf()) {
      chain.emplace_back(id, node.next_leaf());
      count += n;
      if (n > 0) {
        if (have_last && Slice(last_key).compare(node.key_at(0)) >= 0) {
          return Status::Corruption("keys out of order across leaves");
        }
        last_key = node.key_at(static_cast<uint16_t>(n - 1)).ToString();
        have_last = true;
      }
      return Status::OK();
    }
    if (node.leftmost() == kInvalidPage) {
      return Status::Corruption("internal node without leftmost child");
    }
    struct Child {
      PageId id;
      std::string lo, hi;
      bool has_lo, has_hi;
    };
    std::vector<Child> kids;
    kids.push_back({node.leftmost(), lo, n > 0 ? node.key_at(0).ToString() : hi,
                    has_lo, n > 0 ? true : has_hi});
    for (uint16_t i = 0; i < n; ++i) {
      kids.push_back({node.child_at(i), node.key_at(i).ToString(),
                      i + 1 < n
                          ? node.key_at(static_cast<uint16_t>(i + 1)).ToString()
                          : hi,
                      true, i + 1 < n ? true : has_hi});
    }
    pin.Release();
    for (auto& c : kids) {
      BESS_RETURN_IF_ERROR(
          walk(c.id, level - 1, c.lo, c.has_lo, c.hi, c.has_hi));
    }
    return Status::OK();
  };
  BESS_RETURN_IF_ERROR(
      walk(meta.root(), meta.height() - 1, "", false, "", false));

  for (size_t i = 0; i < chain.size(); ++i) {
    const PageId want =
        i + 1 < chain.size() ? chain[i + 1].first : kInvalidPage;
    if (chain[i].second != want) return Status::Corruption("broken leaf chain");
  }
  if (!chain.empty() && meta.first_leaf() != chain[0].first) {
    return Status::Corruption("meta first_leaf does not head the chain");
  }
  if (entries != nullptr) *entries = count;
  return Status::OK();
}

}  // namespace bess
