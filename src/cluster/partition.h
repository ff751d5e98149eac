// Partition writer: splits one labeling into per-node .plgl v3 store
// files according to a ClusterConfig's placement map.
//
// Each node file keeps the FULL global id space (n label slots) with
// real labels only in the slots the node owns and empty (0-bit) labels
// everywhere else. That choice is what lets the node side stay
// completely unchanged: a partition file is a perfectly ordinary v3
// store, `plgtool serve --tcp` maps it with the existing MappedStore /
// Snapshot machinery, ids keep their global meaning, and a query
// wrongly routed to a non-owner decodes an empty label and answers
// kCorrupt in-band — a loud, testable signal rather than silent wrong
// answers. The space cost of the empty slots is a few directory bytes
// per vertex, negligible next to the replicated label payload.
//
// No label is copied per node: each file is written straight from the
// shared labeling through StoreWriter's label source, which returns the
// owned label itself and nullptr (a 0-bit label) for every slot the node
// does not own, looked up in a per-key-shard ownership table built once
// from cfg.preference_lists().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/config.h"
#include "core/labeling.h"

namespace plg::cluster {

/// Per-node outcome of a partition split.
struct PartitionInfo {
  std::string path;            ///< file written for this node
  std::uint64_t owned = 0;     ///< labels stored (replication included)
  std::uint64_t label_bits = 0;  ///< total bits of stored labels
};

/// Writes cfg.num_nodes() v3 store files `<dir>/node<i>.plgl`, each
/// holding the labels of the key shards node i owns (every label is
/// therefore written to exactly R files). `store_shards` is the v3
/// intra-file shard count handed to StoreWriter. Throws on I/O failure
/// or invalid config.
std::vector<PartitionInfo> write_partitions(const Labeling& labeling,
                                            const ClusterConfig& cfg,
                                            const std::string& dir,
                                            std::size_t store_shards = 8);

/// The path write_partitions uses for node `i` under `dir`.
std::string partition_path(const std::string& dir, std::uint32_t node);

}  // namespace plg::cluster
