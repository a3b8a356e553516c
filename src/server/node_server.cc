#include "server/node_server.h"

#include <cstddef>

#include "segment/layout.h"

namespace bess {

// The core exists before the upstream connects: the upstream's callback
// thread may ask about local lock holders as soon as it runs. A node request
// either hits the cache or waits on the one upstream session, which the
// owner runs serially: two workers keep hits flowing past an upstream wait,
// and more only add runnable threads beside the node's own applications (on
// a 4-vCPU host node_fetch ran slower with 4 workers, and with 1).
NodeServer::NodeServer(Options options)
    : options_(std::move(options)),
      core_(SessionCore::Options{.socket_path = options_.socket_path,
                                 .worker_threads = 2},
            this, &scope_) {}

Result<std::unique_ptr<NodeServer>> NodeServer::Start(Options options) {
  auto node = std::unique_ptr<NodeServer>(new NodeServer(std::move(options)));

  // Node page cache: copy-in/copy-out frames on the heap, LRU-2 so a
  // one-touch scan through the node cannot flush the working set.
  const uint32_t frames =
      node->options_.cache_pages == 0 ? 1 : node->options_.cache_pages;
  node->cache_placement_.reset(new HeapPlacement(frames));
  FrameTable::Options copts;
  copts.frame_count = frames;
  copts.policy = "lru2";
  node->page_cache_.reset(new FrameTable(copts, node->cache_placement_.get(),
                                         /*io=*/nullptr, &node->scope_));
  BESS_RETURN_IF_ERROR(node->page_cache_->Init());

  // The node server is itself a client of the owning server (§3).
  RemoteClient::Options uopts;
  uopts.server_path = node->options_.upstream_path;
  BESS_ASSIGN_OR_RETURN(node->upstream_,
                        RemoteClient::Connect(uopts, node.get()));
  BESS_RETURN_IF_ERROR(node->core_.Start());
  return node;
}

NodeServer::~NodeServer() { Stop(); }

void NodeServer::Stop() {
  core_.Stop();
  upstream_.reset();  // says goodbye; joins its reader and callback threads
}

NodeServer::Stats NodeServer::stats() const {
  const ::bess::Stats s = scope_.Snapshot();
  return Stats{.cache_hits = s.counter("node.cache.hit"),
               .upstream_fetches = s.counter("node.upstream.fetch")};
}

// ---- requests -------------------------------------------------------------

Status NodeServer::Handle(Session& session, const Message& msg,
                          std::string* reply, uint16_t*) {
  BESS_COUNT_IN(scope_, "node.request");
  switch (msg.type) {
    case kMsgPing:  // liveness of the node itself
      reply->assign(msg.payload);
      return Status::OK();
    case kMsgFetchPages:
      return FetchPages(msg, reply);
    case kMsgFetchSlotted:
      return FetchSlotted(msg, reply);
    case kMsgReleaseLock: {
      // The node-level lock stays cached until an upstream callback.
      Decoder dec(msg.payload);
      return core_.locks().Release(session.id, dec.GetFixed64());
    }
    case kMsgReleaseAll:
      core_.locks().ReleaseAll(session.id);
      return Status::OK();
    case kMsgCommit:
      return Commit(msg);
    default:
      return Forward(msg, reply);
  }
}

Status NodeServer::FinishLock(Session&, const SessionCore::LockWait& w,
                              Status waited) {
  BESS_COUNT_IN(scope_, "node.request");
  if (!waited.ok()) return waited;
  // The local grant is in; the node must also hold a covering lock from
  // the owner. Looking it up under mu_ after the grant is what makes a
  // callback's check-and-release atomic against us.
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> guard(mu_);
    auto it = node_locks_.find(w.key);
    if (it != node_locks_.end() && LockJoin(it->second, w.mode) == it->second) {
      BESS_COUNT_IN(scope_, "node.lock.cache_hit");
      return Status::OK();
    }
    epoch = epoch_.load();
  }
  BESS_COUNT_IN(scope_, "node.lock.forward");
  std::string ignored;
  BESS_RETURN_IF_ERROR(Forward(w.request, &ignored));
  // Cache the grant unless coverage was given up while it was in flight —
  // it may have been granted to the lost upstream session.
  std::lock_guard<std::mutex> guard(mu_);
  if (epoch == epoch_) {
    auto [it, fresh] = node_locks_.try_emplace(w.key, w.mode);
    if (!fresh) it->second = LockJoin(it->second, w.mode);
  }
  return Status::OK();
}

Status NodeServer::FetchPages(const Message& msg, std::string* reply) {
  Decoder dec(msg.payload);
  const uint16_t db = dec.GetFixed16();
  const uint16_t area = dec.GetFixed16();
  const PageId first = dec.GetFixed32();
  const uint32_t count = dec.GetFixed32();
  if (!dec.ok() || count == 0 || count > kPagesPerExtent) {
    return Status::Protocol("bad fetch request");
  }
  // Serve the run from the node cache when all of it is there; otherwise
  // fetch the whole run upstream.
  reply->resize(static_cast<size_t>(count) * kPageSize);
  if (CacheGet(db, area, first, count, reply->data())) return Status::OK();
  const uint64_t epoch = epoch_.load();
  BESS_COUNT_IN(scope_, "node.upstream.fetch");
  std::string fetched;
  BESS_RETURN_IF_ERROR(Forward(msg, &fetched));
  if (fetched.size() != reply->size()) {
    return Status::Protocol("short upstream fetch");
  }
  CacheFill(epoch, db, area, first, count, fetched.data());
  *reply = std::move(fetched);
  return Status::OK();
}

Status NodeServer::FetchSlotted(const Message& msg, std::string* reply) {
  Decoder dec(msg.payload);
  const SegmentId id = SegmentId::Unpack(dec.GetFixed64());
  if (!dec.ok()) return Status::Protocol("bad slotted fetch request");
  // A cached head page gives the page count without going upstream.
  reply->resize(4 + kPageSize);
  if (CacheGet(id.db, id.area, id.first_page, 1, reply->data() + 4)) {
    const uint32_t pages = DecodeFixed32(reply->data() + 4 +
                                         offsetof(SlottedHeader, page_count));
    if (pages >= 1 && pages <= kMaxSlottedPages) {
      reply->resize(4 + static_cast<size_t>(pages) * kPageSize);
      if (CacheGet(id.db, id.area, id.first_page + 1, pages - 1,
                   reply->data() + 4 + kPageSize)) {
        EncodeFixed32(reply->data(), pages);
        return Status::OK();
      }
    }
  }
  const uint64_t epoch = epoch_.load();
  BESS_COUNT_IN(scope_, "node.upstream.fetch");
  std::string fetched;
  BESS_RETURN_IF_ERROR(Forward(msg, &fetched));
  Decoder rdec(fetched);
  const uint32_t pages = rdec.GetFixed32();
  Slice bytes = rdec.GetBytes(static_cast<size_t>(pages) * kPageSize);
  if (!rdec.ok() || pages == 0 || pages > kMaxSlottedPages) {
    return Status::Protocol("bad upstream slotted fetch");
  }
  CacheFill(epoch, id.db, id.area, id.first_page, pages, bytes.data());
  *reply = std::move(fetched);
  return Status::OK();
}

Status NodeServer::Commit(const Message& msg) {
  const uint64_t epoch = epoch_.load();
  std::string ignored;
  BESS_RETURN_IF_ERROR(Forward(msg, &ignored));
  // Write-through: refresh the node cache so the other local applications
  // see the committed state immediately. The payload was forwarded verbatim
  // (its ctid prefix keeps upstream dedupe intact); skip those 8 bytes to
  // reach the page set.
  if (msg.payload.size() < 8) return Status::OK();
  auto pages =
      DecodePageSet(Slice(msg.payload.data() + 8, msg.payload.size() - 8));
  if (!pages.ok()) return Status::OK();
  for (const PageImage& img : *pages) {
    if (img.bytes.size() != kPageSize) continue;
    CacheFill(epoch, img.db, img.area, img.page, 1, img.bytes.data());
  }
  return Status::OK();
}

Status NodeServer::Forward(const Message& msg, std::string* reply) {
  Message upstream_reply;
  BESS_RETURN_IF_ERROR(upstream_->Call(msg.type, msg.payload, &upstream_reply));
  *reply = std::move(upstream_reply.payload);
  return Status::OK();
}

// ---- upstream callbacks -----------------------------------------------------

Status NodeServer::OnCallback(uint64_t key, LockMode) {
  BESS_COUNT_IN(scope_, "node.callback");
  // Deny while any local application holds the lock, else give it back and
  // drop the cached pages (§3) — one step under mu_ against FinishLock.
  std::lock_guard<std::mutex> guard(mu_);
  if (!core_.locks().Holders(key).empty()) {
    return Status::Busy("lock in use by a local application");
  }
  node_locks_.erase(key);
  DropPagesLocked();  // coarse but safe: stale data cannot be served
  return Status::OK();
}

void NodeServer::OnSessionLost() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    node_locks_.clear();
    DropPagesLocked();
  }
  // The lost upstream session covered every local lock: end the local
  // sessions as a direct client's ends with its server connection (the
  // applications reconnect; a transaction in flight aborts).
  core_.CloseAllSessions();
}

// ---- node page cache --------------------------------------------------------

bool NodeServer::CacheGet(uint16_t db, uint16_t area, PageId first,
                          uint32_t count, char* dst) {
  for (uint32_t i = 0; i < count; ++i) {
    if (!page_cache_->Get(PageAddr{db, area, first + i}.Pack(),
                          dst + static_cast<size_t>(i) * kPageSize)) {
      return false;
    }
    BESS_COUNT_IN(scope_, "node.cache.hit");
  }
  return true;
}

void NodeServer::CacheFill(uint64_t epoch, uint16_t db, uint16_t area,
                           PageId first, uint32_t count, const char* src) {
  std::lock_guard<std::mutex> guard(mu_);
  if (epoch != epoch_) return;
  for (uint32_t i = 0; i < count; ++i) {
    (void)page_cache_->Put(PageAddr{db, area, first + i}.Pack(),
                           src + static_cast<size_t>(i) * kPageSize);
  }
}

void NodeServer::DropPagesLocked() {
  epoch_++;
  (void)page_cache_->Clear(/*flush=*/false);
  BESS_COUNT_IN(scope_, "node.cache.invalidate");
}

}  // namespace bess
