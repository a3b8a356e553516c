// Tests for the SegmentMapper: the paper's three-wave faulting, swizzling,
// update detection, corruption prevention, reorganization, and large objects.
#include <gtest/gtest.h>

#include <cstring>

#include "vm/mapper.h"
#include "vm/mem_store.h"

namespace bess {
namespace {

constexpr SegmentId kSegA{1, 0, 0};
constexpr SegmentId kSegB{1, 0, 16};

// A test object shape: two reference fields then a payload word.
struct Node {
  uint64_t next;   // reference at offset 0
  uint64_t other;  // reference at offset 8
  uint64_t value;
};

class RecordingObserver : public AccessObserver {
 public:
  Status OnSegmentRead(SegmentId id) override {
    reads.push_back(id);
    return Status::OK();
  }
  Status OnPageWrite(SegmentId id, PageAddr page) override {
    (void)id;
    writes.push_back(page);
    return Status::OK();
  }
  std::vector<SegmentId> reads;
  std::vector<PageAddr> writes;
};

class MapperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TypeDescriptor node;
    node.name = "Node";
    node.fixed_size = sizeof(Node);
    node.ref_offsets = {0, 8};
    auto idx = types_.Register(node);
    ASSERT_TRUE(idx.ok());
    node_type_ = *idx;
    ResetMapper(SegmentMapper::Options());
  }

  void ResetMapper(SegmentMapper::Options opts) {
    mapper_ = std::make_unique<SegmentMapper>(&store_, &types_, opts);
  }

  // Installs a fresh segment with an 8-page data segment.
  SlottedView Install(SegmentId id, PageId data_first) {
    auto v = mapper_->InstallNewSegment(id, /*file_id=*/0,
                                        /*slotted_page_count=*/2,
                                        /*slot_capacity=*/64,
                                        /*outbound_capacity=*/16,
                                        /*data_area=*/0, data_first,
                                        /*data_page_count=*/8);
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return *v;
  }

  InMemoryStore store_;
  TypeTable types_;
  TypeIdx node_type_ = 0;
  std::unique_ptr<SegmentMapper> mapper_;
};

TEST_F(MapperTest, CreateWriteBackRefetch) {
  Install(kSegA, 1000);
  const char payload[] = "the quick brown fox";
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, sizeof(payload),
                                    payload);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  EXPECT_TRUE((*slot)->in_use());
  EXPECT_EQ((*slot)->size, sizeof(payload));

  ASSERT_TRUE(mapper_->WriteBackAll().ok());
  EXPECT_GT(store_.pages_written(), 0u);

  // Drop all mappings; refetch through the fault path.
  ASSERT_TRUE(mapper_->Reset().ok());
  auto addr = mapper_->SlotAddress(kSegA, 0);
  ASSERT_TRUE(addr.ok());
  Slot* s = *addr;
  // Touching the slot faults the slotted segment in (wave 2)...
  ASSERT_TRUE(s->in_use());
  EXPECT_EQ(s->size, sizeof(payload));
  // ...and touching the data faults the data segment in (wave 3).
  EXPECT_STREQ(reinterpret_cast<const char*>(s->dp), payload);

  auto stats = mapper_->stats();
  EXPECT_EQ(stats.counter("vm.fault.slotted"), 1u);
  EXPECT_EQ(stats.counter("vm.fault.data"), 1u);
}

TEST_F(MapperTest, FreshSegmentReadableWithoutWriteBack) {
  Install(kSegA, 1000);
  uint64_t v = 0xABCDEF;
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 8, &v);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*reinterpret_cast<uint64_t*>((*slot)->dp), 0xABCDEFull);
}

TEST_F(MapperTest, SwizzleRoundTrip) {
  Install(kSegA, 1000);
  Install(kSegB, 2000);

  // a0 -> b0 (cross segment), a0 -> a1 (intra segment).
  auto a0 = mapper_->CreateObject(kSegA, node_type_, sizeof(Node));
  auto a1 = mapper_->CreateObject(kSegA, node_type_, sizeof(Node));
  auto b0 = mapper_->CreateObject(kSegB, node_type_, sizeof(Node));
  ASSERT_TRUE(a0.ok() && a1.ok() && b0.ok());

  Node* na0 = reinterpret_cast<Node*>((*a0)->dp);
  na0->next = reinterpret_cast<uint64_t>(*b0);
  na0->other = reinterpret_cast<uint64_t>(*a1);
  na0->value = 111;
  reinterpret_cast<Node*>((*a1)->dp)->value = 222;
  reinterpret_cast<Node*>((*b0)->dp)->value = 333;

  ASSERT_TRUE(mapper_->WriteBackAll().ok());
  ASSERT_TRUE(mapper_->Reset().ok());

  // Refetch A and follow the swizzled pointers.
  auto addr = mapper_->SlotAddress(kSegA, 0);
  ASSERT_TRUE(addr.ok());
  Node* n = reinterpret_cast<Node*>((*addr)->dp);
  EXPECT_EQ(n->value, 111u);

  Slot* sb0 = reinterpret_cast<Slot*>(n->next);
  SegmentId owner;
  uint16_t slot_no;
  ASSERT_TRUE(mapper_->ResolveSlotAddress(sb0, &owner, &slot_no).ok());
  EXPECT_EQ(owner, kSegB);
  EXPECT_EQ(slot_no, 0);
  // Following the reference faults B in transparently.
  EXPECT_EQ(reinterpret_cast<Node*>(sb0->dp)->value, 333u);

  Slot* sa1 = reinterpret_cast<Slot*>(n->other);
  EXPECT_EQ(reinterpret_cast<Node*>(sa1->dp)->value, 222u);

  auto stats = mapper_->stats();
  EXPECT_GT(stats.counter("vm.ref.swizzle"), 0u);
}

TEST_F(MapperTest, LazyVsGreedyReservation) {
  // Build the two-segment graph and persist it.
  Install(kSegA, 1000);
  Install(kSegB, 2000);
  auto a0 = mapper_->CreateObject(kSegA, node_type_, sizeof(Node));
  auto b0 = mapper_->CreateObject(kSegB, node_type_, sizeof(Node));
  ASSERT_TRUE(a0.ok() && b0.ok());
  reinterpret_cast<Node*>((*a0)->dp)->next = reinterpret_cast<uint64_t>(*b0);
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  // Lazy (default): reading A's data reserves B but does not fetch it.
  ResetMapper(SegmentMapper::Options());
  {
    auto addr = mapper_->SlotAddress(kSegA, 0);
    ASSERT_TRUE(addr.ok());
    volatile uint64_t sink = reinterpret_cast<Node*>((*addr)->dp)->value;
    (void)sink;
    auto stats = mapper_->stats();
    EXPECT_EQ(stats.counter("vm.fault.slotted"), 1u);  // only A
    EXPECT_TRUE(mapper_->IsKnown(kSegB));
    EXPECT_FALSE(mapper_->IsMapped(kSegB));
  }

  // Greedy baseline: the same access also fetches B's slotted segment
  // (and reserves its data range) immediately.
  SegmentMapper::Options greedy;
  greedy.greedy = true;
  ResetMapper(greedy);
  {
    auto addr = mapper_->SlotAddress(kSegA, 0);
    ASSERT_TRUE(addr.ok());
    volatile uint64_t sink = reinterpret_cast<Node*>((*addr)->dp)->value;
    (void)sink;
    EXPECT_TRUE(mapper_->IsMapped(kSegB));
    auto stats = mapper_->stats();
    EXPECT_EQ(stats.counter("vm.fault.slotted"), 2u);  // A and B
  }
}

TEST_F(MapperTest, UpdateDetectionRecordsWriteSet) {
  Install(kSegA, 1000);
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 16);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  RecordingObserver obs;
  mapper_->set_observer(&obs);

  // Pages are clean and read-protected now; this store must fault exactly
  // once, acquire the "lock", and resume.
  char* obj = reinterpret_cast<char*>((*slot)->dp);
  obj[0] = 'Z';
  obj[1] = 'Q';  // same page: no second fault

  ASSERT_EQ(obs.writes.size(), 1u);
  EXPECT_EQ(obs.writes[0].page, 1000u);
  auto stats = mapper_->stats();
  EXPECT_EQ(stats.counter("vm.fault.detect"), 1u);

  std::vector<PageImage> dirty;
  ASSERT_TRUE(mapper_->CollectDirty(&dirty).ok());
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].page, 1000u);
  EXPECT_EQ(dirty[0].bytes[0], 'Z');
  mapper_->set_observer(nullptr);
}

TEST_F(MapperTest, CleanPagesProduceNoDirtyImages) {
  Install(kSegA, 1000);
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 16);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(mapper_->WriteBackAll().ok());
  // Reads alone must not dirty anything.
  volatile char c = reinterpret_cast<char*>((*slot)->dp)[3];
  (void)c;
  std::vector<PageImage> dirty;
  ASSERT_TRUE(mapper_->CollectDirty(&dirty).ok());
  EXPECT_TRUE(dirty.empty());
}

TEST_F(MapperTest, CorruptionPreventionKillsStrayWrites) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Install(kSegA, 1000);
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 16);
  ASSERT_TRUE(slot.ok());
  // A stray application write into a write-protected control structure is
  // detected by the hardware at the instruction, before corruption spreads.
  EXPECT_DEATH({ (*slot)->size = 0xBAD; }, "");
}

TEST_F(MapperTest, RelocateDataPreservesReferences) {
  Install(kSegA, 1000);
  auto a0 = mapper_->CreateObject(kSegA, node_type_, sizeof(Node));
  auto a1 = mapper_->CreateObject(kSegA, node_type_, sizeof(Node));
  ASSERT_TRUE(a0.ok() && a1.ok());
  Node* n0 = reinterpret_cast<Node*>((*a0)->dp);
  n0->next = reinterpret_cast<uint64_t>(*a1);
  n0->value = 42;
  reinterpret_cast<Node*>((*a1)->dp)->value = 43;
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  // Hold a raw reference (as user code would, via ref<T>).
  Slot* held = *a0;

  // Move the data segment to a different disk location and size.
  ASSERT_TRUE(mapper_->RelocateData(kSegA, /*area=*/0, /*first=*/3000,
                                    /*pages=*/16)
                  .ok());
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  // The held reference still works without any fixup.
  Node* n = reinterpret_cast<Node*>(held->dp);
  EXPECT_EQ(n->value, 42u);
  EXPECT_EQ(reinterpret_cast<Node*>(reinterpret_cast<Slot*>(n->next)->dp)
                ->value,
            43u);

  // After a full refetch, data comes from the new location.
  ASSERT_TRUE(mapper_->Reset().ok());
  auto addr = mapper_->SlotAddress(kSegA, 0);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(reinterpret_cast<Node*>((*addr)->dp)->value, 42u);
  auto view = mapper_->View(kSegA);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->header()->data_first_page, 3000u);
  EXPECT_EQ(view->header()->data_page_count, 16u);
}

TEST_F(MapperTest, CompactDataSqueezesHoles) {
  Install(kSegA, 1000);
  std::string big(600, 'a');
  auto a0 = mapper_->CreateObject(kSegA, kRawBytesType, 600, big.data());
  auto a1 = mapper_->CreateObject(kSegA, kRawBytesType, 600, big.data());
  auto a2 = mapper_->CreateObject(kSegA, kRawBytesType, 600, big.data());
  ASSERT_TRUE(a0.ok() && a1.ok() && a2.ok());
  memset(reinterpret_cast<void*>((*a2)->dp), 'c', 600);

  SegmentId id;
  uint16_t a1_no;
  ASSERT_TRUE(mapper_->ResolveSlotAddress(*a1, &id, &a1_no).ok());
  ASSERT_TRUE(mapper_->DeleteObject(kSegA, a1_no).ok());

  auto view = mapper_->View(kSegA);
  ASSERT_TRUE(view.ok());
  const uint32_t used_before = view->header()->data_used;
  EXPECT_GT(view->header()->data_dead, 0u);

  ASSERT_TRUE(mapper_->CompactData(kSegA).ok());
  EXPECT_LT(view->header()->data_used, used_before);
  EXPECT_EQ(view->header()->data_dead, 0u);

  // Objects intact, references (slots) unaffected.
  EXPECT_EQ(reinterpret_cast<char*>((*a0)->dp)[0], 'a');
  EXPECT_EQ(reinterpret_cast<char*>((*a2)->dp)[0], 'c');

  // Round-trips through disk.
  ASSERT_TRUE(mapper_->WriteBackAll().ok());
  ASSERT_TRUE(mapper_->Reset().ok());
  auto addr = mapper_->SlotAddress(kSegA, 2);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(reinterpret_cast<char*>((*addr)->dp)[599], 'c');
}

TEST_F(MapperTest, TransparentLargeObject) {
  Install(kSegA, 1000);
  // A 3-page (12 KiB) object in its own disk segment at page 5000.
  const uint32_t size = 3 * kPageSize;
  auto slot = mapper_->CreateLargeObject(kSegA, kRawBytesType, size,
                                         /*area=*/0, /*first=*/5000,
                                         /*pages=*/3);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  EXPECT_TRUE((*slot)->flags & kSlotLargeObject);

  char* data = reinterpret_cast<char*>((*slot)->dp);
  for (uint32_t i = 0; i < size; ++i) data[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(mapper_->WriteBackAll().ok());
  ASSERT_TRUE(mapper_->Reset().ok());

  auto addr = mapper_->SlotAddress(kSegA, 0);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ((*addr)->size, size);
  // Access transparently, as if it were a small object.
  char* back = reinterpret_cast<char*>((*addr)->dp);
  for (uint32_t i = 0; i < size; i += 997) {
    ASSERT_EQ(back[i], static_cast<char>(i % 251)) << "offset " << i;
  }

  // Page-granular dirtying: touch one page, expect one dirty image.
  back[kPageSize + 7] = 'X';
  std::vector<PageImage> dirty;
  ASSERT_TRUE(mapper_->CollectDirty(&dirty).ok());
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].page, 5001u);
}

TEST_F(MapperTest, DeleteObjectReusesSlotWithFreshUniquifier) {
  Install(kSegA, 1000);
  auto a0 = mapper_->CreateObject(kSegA, kRawBytesType, 32);
  ASSERT_TRUE(a0.ok());
  const uint32_t uniq = (*a0)->uniquifier;
  ASSERT_TRUE(mapper_->DeleteObject(kSegA, 0).ok());
  auto a1 = mapper_->CreateObject(kSegA, kRawBytesType, 32);
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(*a0, *a1);  // same slot address
  EXPECT_GT((*a1)->uniquifier, uniq);
}

TEST_F(MapperTest, DiscardDirtyDropsUncommittedChanges) {
  Install(kSegA, 1000);
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 16);
  ASSERT_TRUE(slot.ok());
  char* obj = reinterpret_cast<char*>((*slot)->dp);
  obj[0] = 'A';
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  // Uncommitted change...
  obj[0] = 'B';
  // ...rolled back by dropping dirty segments.
  ASSERT_TRUE(mapper_->DiscardDirty().ok());
  auto addr = mapper_->SlotAddress(kSegA, 0);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(reinterpret_cast<char*>((*addr)->dp)[0], 'A');
}

TEST_F(MapperTest, EvictKeepsPointersValidViaRefault) {
  Install(kSegA, 1000);
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 16);
  ASSERT_TRUE(slot.ok());
  char* obj = reinterpret_cast<char*>((*slot)->dp);
  obj[0] = 'A';
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  Slot* held = *slot;
  ASSERT_TRUE(mapper_->Evict(kSegA).ok());
  EXPECT_FALSE(mapper_->IsMapped(kSegA));
  // The held pointer refaults transparently.
  EXPECT_EQ(reinterpret_cast<char*>(held->dp)[0], 'A');
  EXPECT_TRUE(mapper_->IsMapped(kSegA));
}

TEST_F(MapperTest, EvictRefusesDirtySegments) {
  Install(kSegA, 1000);
  ASSERT_TRUE(mapper_->CreateObject(kSegA, kRawBytesType, 16).ok());
  EXPECT_TRUE(mapper_->Evict(kSegA).IsBusy());
  EXPECT_TRUE(mapper_->Evict(kSegA, /*drop_dirty=*/true).ok());
}

TEST_F(MapperTest, SoftwareModeRequiresExplicitMarkDirty) {
  SegmentMapper::Options opts;
  opts.detect_writes = false;  // the Exodus/early-EOS software approach
  ResetMapper(opts);
  Install(kSegA, 1000);
  auto slot = mapper_->CreateObject(kSegA, kRawBytesType, 16);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(mapper_->WriteBackAll().ok());

  char* obj = reinterpret_cast<char*>((*slot)->dp);
  obj[0] = 'W';  // no fault, no record: the classic lost-update hazard
  std::vector<PageImage> dirty;
  ASSERT_TRUE(mapper_->CollectDirty(&dirty).ok());
  EXPECT_TRUE(dirty.empty());  // update would be LOST without the call

  ASSERT_TRUE(mapper_->MarkDirty(obj, 1).ok());
  dirty.clear();
  ASSERT_TRUE(mapper_->CollectDirty(&dirty).ok());
  EXPECT_EQ(dirty.size(), 1u);
}

TEST_F(MapperTest, StoreFailureSurfacesAtExplicitFetch) {
  Install(kSegA, 1000);
  ASSERT_TRUE(mapper_->CreateObject(kSegA, kRawBytesType, 16).ok());
  ASSERT_TRUE(mapper_->WriteBackAll().ok());
  ASSERT_TRUE(mapper_->Reset().ok());

  store_.FailNextFetches(1);
  auto view = mapper_->FetchSlottedNow(kSegA);
  EXPECT_FALSE(view.ok());
  // The failure is transient: the next fetch succeeds.
  auto view2 = mapper_->FetchSlottedNow(kSegA);
  EXPECT_TRUE(view2.ok()) << view2.status().ToString();
}

}  // namespace
}  // namespace bess
