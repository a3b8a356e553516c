// Pluggable replacement policies for the frame-lifecycle core (§4.2).
//
// A policy ranks frames; it never touches frame contents, protection or
// I/O. The FrameTable drives it through access/insert/evict notifications
// and asks it for victims. Two families ship:
//
//   clock — the paper's second-chance clock. With `use_ref_bits` the policy
//           keeps one reference bit per frame (textbook CLOCK); without, it
//           is a pure rotor over externally-managed recency (the shared
//           cache's level-2 hand, where level-1 protection demotion is the
//           recency signal and lives in the placement).
//   lru / lru2 — LRU-K for K = 1 and 2. LRU-2 ranks by the second-most-
//           recent access, so one-touch scan pages lose to re-referenced
//           hot pages (the seam-proving policy the private clock cannot
//           express).
//
// All methods are called with the owning FrameTable's mutex held; policies
// need no locking of their own.
#ifndef BESS_CACHE_REPLACEMENT_POLICY_H_
#define BESS_CACHE_REPLACEMENT_POLICY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace bess {

inline constexpr uint32_t kNoFrame = 0xFFFFFFFFu;

class ReplacementPolicy {
 public:
  /// True when frame `f` may be replaced right now (unpinned, clean enough
  /// for the caller's pass). Provided by the FrameTable.
  using FrameFilter = std::function<bool(uint32_t)>;
  /// Second-chance hook: the policy demoted `f` instead of evicting it and
  /// the placement should revoke access so a future touch re-promotes it.
  using DemoteHook = std::function<void(uint32_t)>;

  virtual ~ReplacementPolicy() = default;
  virtual const char* name() const = 0;

  /// A page was installed in frame `f`.
  virtual void OnInsert(uint32_t f) = 0;
  /// Frame `f` was accessed (fix hit or raw-touch fault).
  virtual void OnAccess(uint32_t f) = 0;
  /// Frame `f` was evicted; forget its history.
  virtual void OnEvict(uint32_t f) = 0;

  /// Picks a victim among frames passing `evictable`, demoting still-warm
  /// candidates through `demote` on the way. kNoFrame when nothing passes.
  virtual uint32_t PickVictim(const FrameFilter& evictable,
                              const DemoteHook& demote) = 0;

  /// Like PickVictim but read-only: no ref bits cleared, no demotions, no
  /// hand movement. Used by scan staging so speculative loads never burn a
  /// resident page's second chance.
  virtual uint32_t PickIdle(const FrameFilter& evictable) const = 0;

  /// Appends up to `n` frames the hand will reach soonest that pass
  /// `candidate` — the bgwriter's flush-ahead window.
  virtual void FlushHorizon(uint32_t n, const FrameFilter& candidate,
                            std::vector<uint32_t>* out) const = 0;
};

struct ClockPolicyOptions {
  bool use_ref_bits = true;
  /// When set, the hand lives in shared memory (one rotor for every
  /// process attached to the cache); otherwise a private hand is used.
  std::atomic<uint32_t>* shared_hand = nullptr;
};

class ClockPolicy : public ReplacementPolicy {
 public:
  ClockPolicy(uint32_t frame_count, ClockPolicyOptions opts);
  const char* name() const override { return "clock"; }
  void OnInsert(uint32_t f) override;
  void OnAccess(uint32_t f) override;
  void OnEvict(uint32_t f) override;
  uint32_t PickVictim(const FrameFilter& evictable,
                      const DemoteHook& demote) override;
  uint32_t PickIdle(const FrameFilter& evictable) const override;
  void FlushHorizon(uint32_t n, const FrameFilter& candidate,
                    std::vector<uint32_t>* out) const override;

 private:
  uint32_t Advance();
  uint32_t PeekHand() const;

  uint32_t frame_count_;
  ClockPolicyOptions opts_;
  uint32_t local_hand_ = 0;
  std::vector<uint8_t> ref_;
};

/// LRU-K for K in {1, 2}. K = 1 is strict LRU; K = 2 ranks by the
/// penultimate access (never-re-referenced frames rank coldest).
class LruKPolicy : public ReplacementPolicy {
 public:
  LruKPolicy(uint32_t frame_count, int k);
  const char* name() const override { return k_ == 2 ? "lru2" : "lru"; }
  void OnInsert(uint32_t f) override;
  void OnAccess(uint32_t f) override;
  void OnEvict(uint32_t f) override;
  uint32_t PickVictim(const FrameFilter& evictable,
                      const DemoteHook& demote) override;
  uint32_t PickIdle(const FrameFilter& evictable) const override;
  void FlushHorizon(uint32_t n, const FrameFilter& candidate,
                    std::vector<uint32_t>* out) const override;

 private:
  struct History {
    uint64_t last = 0;  ///< most recent access tick
    uint64_t prev = 0;  ///< access before that (K = 2 rank key)
  };
  /// Lexicographic coldness key: smaller evicts first.
  std::pair<uint64_t, uint64_t> RankKey(uint32_t f) const;

  uint32_t frame_count_;
  int k_;
  uint64_t tick_ = 0;
  std::vector<History> hist_;
};

/// Factory over the policy names accepted in configuration ("clock",
/// "lru", "lru2"). InvalidArgument for anything else.
Result<std::unique_ptr<ReplacementPolicy>> MakeReplacementPolicy(
    const std::string& name, uint32_t frame_count,
    ClockPolicyOptions clock_opts = {});

}  // namespace bess

#endif  // BESS_CACHE_REPLACEMENT_POLICY_H_
