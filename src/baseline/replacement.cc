#include "baseline/replacement.h"

namespace bess {

FrameTable::Options ClassicPool::MakeOptions(uint32_t frame_count,
                                             const std::string& policy) {
  FrameTable::Options opts;
  opts.frame_count = frame_count;
  opts.policy = policy;
  return opts;
}

ClassicPool::ClassicPool(uint32_t frame_count, SegmentStore* store,
                         const std::string& policy)
    : placement_(frame_count),
      io_(store),
      table_(MakeOptions(frame_count, policy), &placement_, &io_, &scope_),
      init_(table_.Init()) {}

Result<void*> ClassicPool::Fix(PageAddr page, bool for_write) {
  BESS_RETURN_IF_ERROR(init_);
  auto r = table_.Fix(page.Pack(), for_write);
  BESS_RETURN_IF_ERROR(r.status());
  return r->data;
}

Status ClassicPool::FlushDirty() {
  BESS_RETURN_IF_ERROR(init_);
  return table_.FlushDirty();
}

}  // namespace bess
