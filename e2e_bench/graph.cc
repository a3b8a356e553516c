#include "graph.h"

#include <algorithm>
#include <numeric>

namespace e2e {

ShadowGraph Generate(const GraphSpec& spec) {
  constexpr double kLocality = 0.7;
  constexpr uint32_t kWindow = 200;
  bess::Random rng(spec.seed);
  ShadowGraph g;
  g.first_id = spec.first_id;
  g.to.resize(spec.parts);
  for (uint32_t i = 0; i < spec.parts; ++i) {
    for (uint32_t& target : g.to[i]) {
      if (i > 0 && rng.Bernoulli(kLocality)) {
        const uint32_t span = std::min(i, kWindow);
        target = i - span + static_cast<uint32_t>(rng.Uniform(span));
      } else {
        target = static_cast<uint32_t>(rng.Uniform(spec.parts));
      }
    }
  }
  return g;
}

StartPicker::StartPicker(uint32_t parts, double hot_fraction, double hot_prob,
                         uint64_t seed)
    : parts_(parts), hot_prob_(hot_prob) {
  std::vector<uint32_t> all(parts);
  std::iota(all.begin(), all.end(), 0u);
  bess::Random rng(seed);
  const auto hot_n = std::max<uint32_t>(
      1, static_cast<uint32_t>(hot_fraction * static_cast<double>(parts)));
  for (uint32_t i = 0; i < hot_n; ++i) {  // partial Fisher-Yates
    std::swap(all[i], all[i + rng.Uniform(parts - i)]);
  }
  hot_.assign(all.begin(), all.begin() + hot_n);
}

uint32_t StartPicker::Pick(bess::Random& rng) const {
  if (rng.Bernoulli(hot_prob_)) return hot_[rng.Uniform(hot_.size())];
  return static_cast<uint32_t>(rng.Uniform(parts_));
}

uint64_t ShadowTraverse(const ShadowGraph& g, uint32_t start, int hops,
                        uint64_t walk_seed, std::vector<uint32_t>* path) {
  bess::Random rng(walk_seed);
  uint32_t cur = start;
  uint64_t sum = Mix(0, g.first_id + cur);
  if (path != nullptr) path->push_back(cur);
  for (int h = 0; h < hops; ++h) {
    cur = g.to[cur][rng.Uniform(3)];
    sum = Mix(sum, g.first_id + cur);
    if (path != nullptr) path->push_back(cur);
  }
  return sum;
}

uint64_t Traverse(bess::ref<Part> start, int hops, uint64_t walk_seed,
                  std::vector<Part*>* path) {
  bess::Random rng(walk_seed);
  Part* cur = start.get();
  if (cur == nullptr) return 0;
  uint64_t sum = Mix(0, cur->id);
  if (path != nullptr) path->push_back(cur);
  for (int h = 0; h < hops; ++h) {
    cur = bess::ref<Part>::FromField(cur->to[rng.Uniform(3)]).get();
    if (cur == nullptr) return ~sum;  // a lost reference fails the checksum
    sum = Mix(sum, cur->id);
    if (path != nullptr) path->push_back(cur);
  }
  return sum;
}

bess::Result<std::vector<bess::Slot*>> Load(bess::Database* db, uint16_t file,
                                            bess::TypeIdx type,
                                            const ShadowGraph& g) {
  std::vector<bess::Slot*> slots;
  slots.reserve(g.size());
  for (uint32_t i = 0; i < g.size(); ++i) {
    Part init{};
    init.id = g.first_id + i;
    BESS_ASSIGN_OR_RETURN(bess::Slot * slot,
                          db->CreateObject(file, type, sizeof(Part), &init));
    slots.push_back(slot);
  }
  for (uint32_t i = 0; i < g.size(); ++i) {
    Part* p = AsPart(slots[i]);
    for (int e = 0; e < 3; ++e) {
      p->to[e] = reinterpret_cast<uint64_t>(slots[g.to[i][e]]);
    }
  }
  return slots;
}

}  // namespace e2e
