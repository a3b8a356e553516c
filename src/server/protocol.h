// Wire protocol between BeSS clients, node servers, and servers (paper §3).
//
// Each peer session is one Unix-domain socket. It carries client requests
// and their replies (matched by req_id) and, if the client's Hello declared
// it callable, server callbacks that the client answers when it gets to.
#ifndef BESS_SERVER_PROTOCOL_H_
#define BESS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "object/oid.h"
#include "os/socket.h"
#include "segment/type_descriptor.h"
#include "txn/lock_manager.h"
#include "vm/mapper.h"

namespace bess {

enum MsgType : uint16_t {
  // Session management
  kMsgHello = 1,        ///< {[u8 callable]} -> {u64 session_id}
  kMsgGoodbye = 3,      ///< value 2 is retired (enum order is the wire)

  // Data service
  kMsgFetchSlotted,     ///< {u64 seg} -> {u32 pages, bytes}
  kMsgFetchPages,       ///< {u16 db, u16 area, u32 first, u32 count} -> bytes
  kMsgAllocSegment,     ///< {u16 db, u16 area, u32 pages} -> {u32 first, u32 count}
  kMsgFreeSegment,      ///< {u16 db, u16 area, u32 first}

  // Locking (callback algorithm, §3)
  kMsgLock,             ///< {u64 key, u8 mode, u32 timeout_ms} -> status
  kMsgReleaseLock,      ///< {u64 key}
  kMsgReleaseAll,       ///< {} release every lock of the session

  // Transactions
  kMsgCommit,           ///< {u64 ctid, u32 npages, npages×(u64 addr, page bytes)}
                        ///< -> status; ctid deduplicates replayed commits
  kMsgPrepare,          ///< same payload; phase 1 of 2PC -> vote
  kMsgCommitPrepared,   ///< {u64 gtid} -> status
  kMsgAbortPrepared,    ///< {u64 gtid}

  // Catalog service
  kMsgCreateFile,       ///< {u16 db, name, u8 multifile} -> {u16 file_id}
  kMsgFindFile,         ///< {u16 db, name} -> {u16 file_id}
  kMsgRegisterType,     ///< {u16 db, TypeDescriptor} -> {u32 type_idx}
  kMsgFetchTypes,       ///< {u16 db} -> type table blob
  kMsgNewObjectSegment, ///< {u16 db, u16 file, u32 min_bytes} -> SegmentId + geometry
  kMsgGetRoot,          ///< {u16 db, name} -> {oid}
  kMsgSetRoot,          ///< {u16 db, name, oid}
  kMsgRemoveRoot,       ///< {u16 db, name}

  // Observability
  kMsgGetStats,         ///< {} -> encoded bess::Stats snapshot of the server

  // Server -> client callback, on the session's own socket (req_id 0)
  kMsgCallback,         ///< {u64 key, u8 wanted_mode} -> answer below
  kMsgCallbackReleased, ///< {u64 key} client gave the lock back
  kMsgCallbackDenied,   ///< {u64 key} lock is in use by an active txn

  // Generic replies
  kMsgOk,               ///< optional payload per request
  kMsgError,            ///< {u8 code, message}

  // Maintenance (appended: enum order is the wire format)
  kMsgScrub,            ///< {u16 db} -> {u64 scanned, fails, repaired, quarantined}

  // Latency probe (appended)
  kMsgPing,             ///< payload echoed back verbatim; the open-loop
                        ///< load generator and pipelining tests ride on it

  // Secondary indexes (appended; DESIGN.md §14). All index RPCs are
  // autocommitted server-side micro-transactions.
  kMsgIndexCreate,      ///< {u16 db, name} -> status
  kMsgIndexDrop,        ///< {u16 db, name} -> status
  kMsgIndexPut,         ///< {u16 db, name, key, value} -> status
  kMsgIndexDel,         ///< {u16 db, name, key} -> {u8 existed}
  kMsgIndexGet,         ///< {u16 db, name, key} -> {u8 found, value}
  kMsgIndexScan,        ///< {u16 db, name, lo, hi, u32 limit} ->
                        ///< {u32 n, n×(key, value), u8 truncated}
};

/// Server-side cap on entries per kMsgIndexScan reply. A wider scan returns
/// `truncated = 1`; the client resumes with lo = last key + '\0'.
inline constexpr uint32_t kIndexScanMaxEntries = 4096;

/// Encodes a Status into a kMsgError payload (or returns kMsgOk type).
inline void EncodeStatus(const Status& s, uint16_t* type,
                         std::string* payload) {
  if (s.ok()) {
    *type = kMsgOk;
    payload->clear();
    return;
  }
  *type = kMsgError;
  payload->clear();
  payload->push_back(static_cast<char>(s.code()));
  payload->append(s.message());
}

/// Decodes a reply message into a Status (kMsgOk -> OK).
Status DecodeStatusReply(const Message& msg);

/// Page-set payload used by kMsgCommit / kMsgPrepare.
void EncodePageSet(const std::vector<PageImage>& pages, std::string* out);
Result<std::vector<PageImage>> DecodePageSet(Slice payload);

/// Geometry of a freshly created object segment (kMsgNewObjectSegment reply).
struct NewSegmentReply {
  SegmentId id;
  uint32_t slotted_pages = 0;
  uint32_t slot_capacity = 0;
  uint16_t outbound_capacity = 0;
  uint16_t data_area = 0;
  PageId data_first_page = kInvalidPage;
  uint32_t data_page_count = 0;

  void EncodeTo(std::string* out) const;
  static Result<NewSegmentReply> DecodeFrom(Slice payload);
};

}  // namespace bess

#endif  // BESS_SERVER_PROTOCOL_H_
