#include "cluster/partition.h"

#include "store/store_writer.h"

namespace plg::cluster {

std::string partition_path(const std::string& dir, std::uint32_t node) {
  return dir + "/node" + std::to_string(node) + ".plgl";
}

std::vector<PartitionInfo> write_partitions(const Labeling& labeling,
                                            const ClusterConfig& cfg,
                                            const std::string& dir,
                                            std::size_t store_shards) {
  cfg.validate();
  const std::size_t n = labeling.size();
  const std::vector<std::vector<std::uint32_t>> pref = cfg.preference_lists();

  // owns[node][key shard]: the placement map, one row per node file.
  std::vector<std::vector<bool>> owns(
      cfg.num_nodes(), std::vector<bool>(cfg.key_shards, false));
  for (std::uint32_t ks = 0; ks < cfg.key_shards; ++ks) {
    for (const std::uint32_t o : pref[ks]) owns[o][ks] = true;
  }
  std::vector<std::uint32_t> key_shard(n);
  for (std::size_t id = 0; id < n; ++id) {
    key_shard[id] = cfg.shard_of(static_cast<std::uint64_t>(id));
  }

  std::vector<PartitionInfo> infos(cfg.num_nodes());
  for (std::uint32_t node = 0; node < cfg.num_nodes(); ++node) {
    const std::vector<bool>& mine = owns[node];
    PartitionInfo& info = infos[node];
    for (std::size_t id = 0; id < n; ++id) {
      if (!mine[key_shard[id]]) continue;
      info.owned += 1;
      info.label_bits += labeling[static_cast<Vertex>(id)].size_bits();
    }
    info.path = partition_path(dir, node);
    store::StoreWriter::write_file(
        info.path, n,
        [&](std::uint64_t id) -> const Label* {
          return mine[key_shard[id]] ? &labeling[static_cast<Vertex>(id)]
                                     : nullptr;
        },
        store_shards);
  }
  return infos;
}

}  // namespace plg::cluster
