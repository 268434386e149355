#include "cache/mshr.h"

#include <cassert>

namespace dlpsim {

MshrTable::MshrTable(std::uint32_t entries, std::uint32_t max_merged)
    : capacity_(entries),
      max_merged_(max_merged),
      slot_tokens_(std::max(max_merged, 1u)),
      entries_(entries),
      tokens_(std::make_unique_for_overwrite<MshrToken[]>(
          std::size_t{entries} * slot_tokens_)) {
  for (std::uint32_t i = 0; i < entries; ++i) entries_[i].slot = i;
}

void MshrTable::Allocate(Addr block, MshrToken token) {
  assert(!Full());
  assert(!HasEntry(block) && "Allocate on an existing entry; use Merge");
  Entry& e = entries_[size_++];
  e.block = block;
  e.count = 1;
  tokens_[std::size_t{e.slot} * slot_tokens_] = token;
}

void MshrTable::Merge(Addr block, MshrToken token) {
  const std::uint32_t i = Find(block);
  assert(i != kNone && entries_[i].count < max_merged_);
  Entry& e = entries_[i];
  tokens_[std::size_t{e.slot} * slot_tokens_ + e.count++] = token;
}

std::span<const MshrToken> MshrTable::Retire(Addr block) {
  const std::uint32_t i = Find(block);
  if (i == kNone) return {};
  const Entry retired = entries_[i];
  // Keep live entries dense: the last one moves into the hole, and the
  // retired slot becomes the next one Allocate() hands out.
  entries_[i] = entries_[--size_];
  entries_[size_].slot = retired.slot;
  return {tokens_.get() + std::size_t{retired.slot} * slot_tokens_,
          retired.count};
}

}  // namespace dlpsim
