// Compile-time constants shared across BeSS modules. Values follow the paper
// where it gives numbers (page-granular protection, 64 KB transparent large
// object limit) and pick conventional defaults elsewhere.
#ifndef BESS_UTIL_CONFIG_H_
#define BESS_UTIL_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace bess {

/// Database page size. Must equal the virtual-memory page size so that
/// mprotect-based update detection and corruption prevention operate on
/// exactly one database page (paper §2.3: hardware detection works only for
/// granules that are multiples of the VM page size).
inline constexpr size_t kPageSize = 4096;

/// Pages per extent. Storage areas grow one extent at a time (§2) and the
/// binary buddy system allocates power-of-two page runs within an extent.
inline constexpr uint32_t kPagesPerExtent = 256;  // 1 MiB extents

/// Largest object that is accessed transparently, i.e. as if it were small
/// (§2.1: "currently, up to 64KB"). Bigger objects must use the byte-range
/// large-object class.
inline constexpr size_t kMaxTransparentObjectSize = 64 * 1024;

/// Maximum number of slots in one slotted segment.
inline constexpr uint32_t kMaxSlotsPerSegment = 4096;

/// Pages in a freshly created data segment (more when the first object
/// needs them).
inline constexpr uint32_t kDataSegmentPages = 8;

/// Default lock-wait timeout (ms). The paper uses timeouts for (distributed)
/// deadlock detection (§3).
inline constexpr int kLockTimeoutMillis = 2000;

/// Default wait for one callback-locking round trip (§3). A client that
/// cannot answer within this window is treated as unresponsive and its
/// session is torn down (presumed abort).
inline constexpr int kCallbackTimeoutMillis = 500;

}  // namespace bess

#endif  // BESS_UTIL_CONFIG_H_
