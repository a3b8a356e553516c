#include "os/fault_dispatcher.h"

#include <signal.h>
#include <string.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/metrics.h"

#if defined(__x86_64__) && defined(__linux__)
#include <ucontext.h>
#define BESS_HAVE_X86_ERR 1
#endif

namespace bess {
namespace {

struct sigaction g_prev_segv;
struct sigaction g_prev_bus;
std::mutex g_register_mutex;

void RestoreAndReraise(int signo, const struct sigaction* prev) {
  // Not one of ours: fall back to the previous disposition so real bugs
  // produce a normal crash (and gtest death tests keep working).
  sigaction(signo, prev, nullptr);
  raise(signo);
}

}  // namespace

FaultDispatcher& FaultDispatcher::Instance() {
  static FaultDispatcher* instance = new FaultDispatcher();
  return *instance;
}

void FaultDispatcher::Install() {
  bool expected = false;
  if (!installed_.compare_exchange_strong(expected, true)) return;

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = reinterpret_cast<void (*)(int, siginfo_t*, void*)>(
      &FaultDispatcher::OnSignal);
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGSEGV, &sa, &g_prev_segv);
  sigaction(SIGBUS, &sa, &g_prev_bus);
}

int FaultDispatcher::RegisterRange(void* base, size_t len,
                                   FaultRangeOwner* owner) {
  Install();
  std::lock_guard<std::mutex> guard(g_register_mutex);
  for (int i = 0; i < kMaxRanges; ++i) {
    if (slots_[i].owner.load(std::memory_order_acquire) == nullptr) {
      slots_[i].len.store(len, std::memory_order_relaxed);
      slots_[i].base.store(reinterpret_cast<uintptr_t>(base),
                           std::memory_order_relaxed);
      // owner last: signal handler treats non-null owner as "slot live".
      slots_[i].owner.store(owner, std::memory_order_release);
      return i;
    }
  }
  return -1;
}

void FaultDispatcher::UnregisterRange(int id) {
  if (id < 0 || id >= kMaxRanges) return;
  std::lock_guard<std::mutex> guard(g_register_mutex);
  slots_[id].owner.store(nullptr, std::memory_order_release);
  slots_[id].base.store(0, std::memory_order_relaxed);
  slots_[id].len.store(0, std::memory_order_relaxed);
}

FaultRangeOwner* FaultDispatcher::FindOwner(const void* addr) {
  const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
  for (int i = 0; i < kMaxRanges; ++i) {
    FaultRangeOwner* owner = slots_[i].owner.load(std::memory_order_acquire);
    if (owner == nullptr) continue;
    const uintptr_t base = slots_[i].base.load(std::memory_order_relaxed);
    const size_t len = slots_[i].len.load(std::memory_order_relaxed);
    if (a >= base && a < base + len) return owner;
  }
  return nullptr;
}

bool FaultDispatcher::Dispatch(void* addr, bool is_write) {
  FaultRangeOwner* owner = FindOwner(addr);
  if (owner == nullptr) return false;
  BESS_COUNT("vm.fault.dispatch");
  return owner->OnFault(addr, is_write);
}

void FaultDispatcher::OnSignal(int signo, void* siginfo, void* ucontext) {
  auto* info = static_cast<siginfo_t*>(siginfo);
  void* addr = info->si_addr;

  bool is_write = false;
#ifdef BESS_HAVE_X86_ERR
  if (ucontext != nullptr) {
    auto* uc = static_cast<ucontext_t*>(ucontext);
    // Page-fault error code bit 1: set when the access was a write.
    is_write = (uc->uc_mcontext.gregs[REG_ERR] & 0x2) != 0;
  }
#else
  (void)ucontext;
#endif

  if (Instance().Dispatch(addr, is_write)) return;

  RestoreAndReraise(signo, signo == SIGSEGV ? &g_prev_segv : &g_prev_bus);
}

}  // namespace bess
