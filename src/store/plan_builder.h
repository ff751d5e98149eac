// Shared LabelView plan materialization for snapshot admission.
//
// Every snapshot shard — a region of an mmap'd v3 file or of a one-shard
// in-memory v3 image — ends admission by building one LabelView decode
// plan per label over its packed bits plus its cumulative offset table.
// This is the single implementation of that stage; Snapshot parallelizes
// it by running one build_plans call per shard on the ThreadPool, which
// is exactly the serial per-shard loop and therefore bit-identical to a
// serial build (regression-asserted in tests/test_store.cpp).
//
// validate_offsets is the structural gate the mmap path runs BEFORE
// building plans from unverified bytes: with the offset table proven
// monotone and bounded by the directory's bit count (itself bounded by
// the real file size at open), no label extent can reach outside the
// mapping — memory safety never waits on the lazy CRC, only answer
// correctness does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/label_view.h"

namespace plg::store {

/// Builds one decode plan per label: plans[i] covers bits
/// [offsets[i], offsets[i+1]) of `words`. A label whose header fails to
/// parse gets an invalid placeholder (callers fall back to the
/// materializing path), so this never throws; a 0-bit label gets one
/// without a parse. `offsets` holds n + 1
/// entries; the returned views alias `words`.
std::vector<LabelView> build_plans(const std::uint64_t* words,
                                   const std::uint64_t* offsets,
                                   std::size_t n);

/// Structural validation of a cumulative offset table: offsets[0] == 0,
/// nondecreasing, offsets[n] == total_bits. Throws DecodeError naming
/// the first violation. A call to this sanitizes the table for plglint's
/// untrusted-length rule.
// plglint: bounds-check
void validate_offsets(const std::uint64_t* offsets, std::size_t n,
                      std::uint64_t total_bits);

}  // namespace plg::store
