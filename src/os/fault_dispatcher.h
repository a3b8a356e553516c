// Process-wide SIGSEGV/SIGBUS dispatcher.
//
// BeSS "traps primitive events as they occur" (§2.4): touching a reserved
// (PROT_NONE) range raises a segment fault that triggers fetch-and-swizzle,
// and writing a read-protected page raises a protection fault that drives
// automatic update detection and lock acquisition (§2.3). This dispatcher
// owns the process signal handler and routes faults to the owner of the
// address range they landed in.
//
// Owners register coarse ranges (one arena per SegmentMapper / PVMA region),
// so the registry is tiny and scanned lock-free from signal context. A fault
// outside every registered range is re-raised with the previous disposition
// restored, so genuine wild-pointer crashes still crash.
#ifndef BESS_OS_FAULT_DISPATCHER_H_
#define BESS_OS_FAULT_DISPATCHER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace bess {

/// Implemented by subsystems that own reserved address ranges and resolve
/// faults inside them (SegmentMapper, PvmaRegion).
class FaultRangeOwner {
 public:
  virtual ~FaultRangeOwner() = default;

  /// Resolves a fault at `addr`. `is_write` is a hardware hint (true when
  /// the faulting access was a store, where the platform exposes that).
  /// Returns true if the fault was resolved and the instruction can resume.
  virtual bool OnFault(void* addr, bool is_write) = 0;
};

/// Singleton registry of fault-handled ranges. Thread-safe; reads from
/// signal context are lock-free.
class FaultDispatcher {
 public:
  static constexpr int kMaxRanges = 128;

  static FaultDispatcher& Instance();

  /// Installs the SIGSEGV/SIGBUS handlers (idempotent). Called automatically
  /// by RegisterRange.
  void Install();

  /// Registers [base, base+len) as owned. Returns a slot id, or -1 if the
  /// registry is full.
  int RegisterRange(void* base, size_t len, FaultRangeOwner* owner);

  /// Removes a registration. The owner must guarantee no fault can be
  /// in flight inside the range (i.e. the range is already inaccessible to
  /// application code).
  void UnregisterRange(int id);

  /// Looks up the owner of `addr`; nullptr if unowned. Also used by the
  /// unswizzler to map a virtual address back to its segment.
  FaultRangeOwner* FindOwner(const void* addr);

 private:
  FaultDispatcher() = default;

  static void OnSignal(int signo, void* siginfo, void* ucontext);
  bool Dispatch(void* addr, bool is_write);

  struct RangeSlot {
    std::atomic<uintptr_t> base{0};
    std::atomic<size_t> len{0};
    std::atomic<FaultRangeOwner*> owner{nullptr};
  };

  RangeSlot slots_[kMaxRanges];
  std::atomic<bool> installed_{false};
};

}  // namespace bess

#endif  // BESS_OS_FAULT_DISPATCHER_H_
