#include "store/plan_builder.h"

#include <string>

#include "util/errors.h"

namespace plg::store {

std::vector<LabelView> build_plans(const std::uint64_t* words,
                                   const std::uint64_t* offsets,
                                   std::size_t n) {
  std::vector<LabelView> plans;
  plans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // A 0-bit label never parses (a partition file's unowned slot).
    if (offsets[i + 1] == offsets[i]) {
      plans.push_back(LabelView());
      continue;
    }
    try {
      plans.push_back(
          LabelView::parse(words, offsets[i], offsets[i + 1] - offsets[i]));
    } catch (const DecodeError&) {
      plans.push_back(LabelView());
    }
  }
  return plans;
}

void validate_offsets(const std::uint64_t* offsets, std::size_t n,
                      std::uint64_t total_bits) {
  if (offsets[0] != 0) {
    throw DecodeError("shard offsets: first offset must be zero");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i + 1] < offsets[i]) {
      throw DecodeError("shard offsets: non-monotone at label " +
                        std::to_string(i));
    }
  }
  if (offsets[n] != total_bits) {
    throw DecodeError(
        "shard offsets: table disagrees with the directory bit count");
  }
}

}  // namespace plg::store
