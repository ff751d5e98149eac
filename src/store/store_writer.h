// StoreWriter: serializes labels into the sharded .plgl v3 layout
// (store/format_v3.h), reading them through a label source so a caller
// writes a subset or a relabeled view without copying a Labeling.
//
// The writer owns the layout invariants the mapped reader relies on:
// shard partition identical to ShardMap(n, num_shards), every region
// 8-byte aligned and exactly shard_region_bytes long, per-region CRC-32C
// recorded in the directory, header and directory CRCs patched last. A
// freshly written file therefore always opens cleanly through
// MappedStore and maps onto the same ShardMap the query service builds
// for it — no re-partitioning at load time.
//
// write_file routes through fault::FaultOutputStream when a fault plan is
// active, so injected disk-full faults exercise the same stream-state
// error handling as the v2 writer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/labeling.h"

namespace plg::store {

/// The writer's label source: label_of(v) for v in [0, n). nullptr
/// stands for a 0-bit label, so a caller can leave slots empty without
/// building a Label for each. The pointed-to label must stay alive for
/// the call; the writer may ask for the same v more than once.
using LabelOf = std::function<const Label*(std::uint64_t)>;

class StoreWriter {
 public:
  /// Serializes labels 0..n-1 into a fresh v3 blob partitioned into (at
  /// most) `num_shards` shards via ShardMap. num_shards == 0 is clamped
  /// to 1 (ShardMap's convention). The blob is sized from the directory
  /// up front, and each label's words go straight into their shard
  /// region, tail word masked: bits a Label holds past size_bits never
  /// reach the file.
  static std::vector<std::uint8_t> serialize(std::uint64_t n,
                                             const LabelOf& label_of,
                                             std::size_t num_shards);
  static std::vector<std::uint8_t> serialize(const Labeling& labeling,
                                             std::size_t num_shards);

  /// Serializes and writes to `path`. Throws EncodeError on I/O failure
  /// (including injected write faults).
  static void write_file(const std::string& path, std::uint64_t n,
                         const LabelOf& label_of, std::size_t num_shards);
  static void write_file(const std::string& path, const Labeling& labeling,
                         std::size_t num_shards);
};

}  // namespace plg::store
