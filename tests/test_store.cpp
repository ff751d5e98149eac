// The zero-copy storage subsystem (src/store/): .plgl v3 format
// round-trip, the SIGBUS guard (eager header/directory validation vs the
// real file size — after open(), no accessor can fault), the lazy
// per-shard CRC state machine, mmap fault injection, and the snapshot
// integration: mapped admission, parallel plan materialization
// (regression-asserted bit-identical to serial), quarantine + self-heal
// of shards whose mapping rots, one total_bytes()/plan table for the
// same labels from every source, and the memory-v3 vs file-v3
// differential contract over >10k FaultPlan-corrupted labels (answer
// for answer, throw for throw).
//
// Suite names embed "Snapshot" where the test exercises concurrent
// snapshot state, so the tsan CI job's regex picks them up.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/config.h"
#include "cluster/partition.h"
#include "core/label.h"
#include "core/label_store.h"
#include "core/label_view.h"
#include "core/thin_fat.h"
#include "gen/chung_lu.h"
#include "graph/graph.h"
#include "service/engine.h"
#include "service/snapshot.h"
#include "store/format_v3.h"
#include "store/mapped_store.h"
#include "store/plan_builder.h"
#include "store/store_writer.h"
#include "util/bit_stream.h"
#include "util/bits.h"
#include "util/crc32.h"
#include "util/errors.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace plg {
namespace {

using service::QueryService;
using service::QueryStatus;
using service::ServiceOptions;
using service::Snapshot;
using store::MappedStore;
using store::ShardCrcState;
using store::StoreWriter;

Graph store_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return chung_lu_power_law(n, 2.5, 8.0, rng);
}

Labeling encode_labels(const Graph& g) {
  return thin_fat_encode(g, 12).labeling;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path,
                      const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void store_u64le(std::vector<std::uint8_t>& b, std::size_t at,
                 std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void store_u32le(std::vector<std::uint8_t>& b, std::size_t at,
                 std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Polls `pred` until it holds or `timeout` expires.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout) {
  const auto t_end = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < t_end) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ------------------------------------------------------- format round-trip

TEST(StoreV3Format, RoundTripMatchesLabeling) {
  const Graph g = store_graph(500, 101);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_roundtrip.plgl");
  StoreWriter::write_file(path, labeling, 7);

  const auto ms = MappedStore::open(path);
  EXPECT_EQ(ms->num_labels(), labeling.size());
  EXPECT_EQ(ms->num_shards(), 7u);
  std::uint64_t total_bits = 0;
  for (std::uint64_t v = 0; v < labeling.size(); ++v) {
    const Label& want = labeling[static_cast<Vertex>(v)];
    const Label got = ms->get_global(v);
    ASSERT_EQ(got.size_bits(), want.size_bits()) << "v=" << v;
    ASSERT_EQ(got.words(), want.words()) << "v=" << v;
    const std::size_t s = ms->shard_map().shard_of(v);
    const auto i = static_cast<std::size_t>(ms->shard_map().index_in_shard(v));
    EXPECT_EQ(ms->label_bits(s, i), want.size_bits());
    EXPECT_TRUE(ms->verify_label(s, i));
    total_bits += want.size_bits();
  }
  EXPECT_EQ(ms->total_bits(), total_bits);
  // load_all drives every shard through its CRC and must agree too.
  const Labeling all = ms->load_all();
  ASSERT_EQ(all.size(), labeling.size());
  for (std::uint64_t v = 0; v < labeling.size(); ++v) {
    EXPECT_EQ(all[static_cast<Vertex>(v)], labeling[static_cast<Vertex>(v)]);
  }
}

TEST(StoreV3Format, ShardRegionsAreWordAligned) {
  const Graph g = store_graph(300, 102);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_align.plgl");
  StoreWriter::write_file(path, labeling, 5);

  const auto ms = MappedStore::open(path);
  for (std::size_t s = 0; s < ms->num_shards(); ++s) {
    // Region geometry is the writer/reader contract: every section
    // pointer falls on a 64-bit word boundary, so BitReader-style word
    // loads on the mapping are always aligned.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ms->shard_offsets(s)) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ms->shard_labelsums(s)) % 8,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ms->shard_bits(s)) % 8, 0u);
    EXPECT_EQ(ms->shard_bytes(s) % 8, 0u);
    EXPECT_EQ(ms->shard_bytes(s),
              store::shard_region_bytes(ms->shard_labels(s),
                                        ms->shard_total_bits(s)));
  }
}

TEST(StoreV3Format, SniffReportsVersions) {
  const Graph g = store_graph(64, 103);
  const Labeling labeling = encode_labels(g);
  const std::string v2 = temp_path("sniff_v2.plgl");
  const std::string v3 = temp_path("sniff_v3.plgl");
  LabelStore::save_file(v2, labeling);
  StoreWriter::write_file(v3, labeling, 2);
  EXPECT_EQ(MappedStore::sniff_file_version(v2), 2u);
  EXPECT_EQ(MappedStore::sniff_file_version(v3), 3u);
  EXPECT_EQ(MappedStore::sniff_file_version(temp_path("absent.plgl")), 0u);
  const std::string junk = temp_path("sniff_junk.plgl");
  write_file_bytes(junk, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_EQ(MappedStore::sniff_file_version(junk), 0u);
}

TEST(StoreV3Format, HeapParserRejectsV3WithActionableError) {
  const Graph g = store_graph(64, 104);
  const std::string path = temp_path("v3_for_heap.plgl");
  StoreWriter::write_file(path, encode_labels(g), 2);
  try {
    (void)LabelStore::open_file(path, StoreVerify::kStrict);
    FAIL() << "heap parser accepted a v3 store";
  } catch (const DecodeError& e) {
    // The error must point at the right API, not just say "bad version".
    EXPECT_NE(std::string(e.what()).find("MappedStore"), std::string::npos);
  }
}

// The SIGBUS guard: every structural lie the directory can tell about
// the file is caught eagerly at open(), against the real file size —
// truncations can never surface later as a fault on a mapped load.
TEST(StoreV3Format, StructuralRejectionTable) {
  const Graph g = store_graph(200, 105);
  const Labeling labeling = encode_labels(g);
  const std::string ref_path = temp_path("v3_struct_ref.plgl");
  StoreWriter::write_file(ref_path, labeling, 3);
  const std::vector<std::uint8_t> good = read_file(ref_path);
  ASSERT_TRUE(!good.empty());
  const auto open_mutated =
      [&](const std::string& name,
          const std::function<void(std::vector<std::uint8_t>&)>& mutate) {
        std::vector<std::uint8_t> bytes = good;
        mutate(bytes);
        const std::string path = temp_path("v3_struct_" + name + ".plgl");
        write_file_bytes(path, bytes);
        EXPECT_THROW((void)MappedStore::open(path), DecodeError)
            << "mutation accepted: " << name;
      };

  open_mutated("empty", [](auto& b) { b.clear(); });
  open_mutated("header_truncated", [](auto& b) { b.resize(10); });
  open_mutated("dir_truncated",
               [](auto& b) { b.resize(store::kHeaderBytes + 7); });
  open_mutated("region_truncated", [](auto& b) { b.resize(b.size() - 8); });
  open_mutated("trailing_bytes", [](auto& b) { b.resize(b.size() + 16); });
  open_mutated("bad_magic", [](auto& b) { b[0] ^= 0xff; });
  open_mutated("bad_version", [](auto& b) { b[4] = 9; });
  // Flipping a covered header field without re-patching its CRC.
  open_mutated("header_crc", [](auto& b) { b[8] ^= 0x01; });      // n
  open_mutated("dir_crc", [](auto& b) { b[store::kHeaderBytes] ^= 0x01; });
  // Hostile directory: label_count bomb (would overflow the region
  // arithmetic if it were trusted before the bounds check).
  open_mutated("count_bomb", [](auto& b) {
    for (int i = 0; i < 8; ++i) {
      b[store::kHeaderBytes + 16 + i] = 0xff;  // shard 0 label_count
    }
  });
  // num_shards inflated past what the directory extent allows.
  open_mutated("shards_bomb", [](auto& b) { b[24] = 0xff; });
}

TEST(StoreV3Format, TinyStoresAndMoreShardsThanLabels) {
  // 3 labels across 8 shards: ShardMap clamps to ceil partition; the
  // writer and reader must agree on the resulting (possibly empty-tail)
  // shard layout.
  const Graph g = store_graph(3, 106);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_tiny.plgl");
  StoreWriter::write_file(path, labeling, 8);
  const auto ms = MappedStore::open(path);
  EXPECT_EQ(ms->num_labels(), 3u);
  for (std::uint64_t v = 0; v < 3; ++v) {
    EXPECT_EQ(ms->get_global(v), labeling[static_cast<Vertex>(v)]);
  }
}

// The writers' bytes, pinned: CRC-32C digests of a fixed-seed labeling
// written by every store serializer. Any rewrite of a writer must keep
// these digests unchanged — the files it produces are the same files.
TEST(StoreV3Format, WrittenBytesArePinned) {
  const Graph g = store_graph(600, 120);
  const Labeling labeling = encode_labels(g);
  const auto digest = [](const std::vector<std::uint8_t>& b) {
    return crc32c(b.data(), b.size());
  };

  const std::pair<std::size_t, std::uint32_t> v3_pins[] = {
      {1, 0x5bc78cebu}, {4, 0x5676d47bu}, {8, 0x3f49e4c9u}};
  for (const auto& [shards, want] : v3_pins) {
    EXPECT_EQ(digest(StoreWriter::serialize(labeling, shards)), want)
        << "v3 serialize at " << shards << " shards";
  }
  EXPECT_EQ(digest(LabelStore::serialize(labeling)), 0xfd486484u) << "v2";
  EXPECT_EQ(digest(LabelStore::serialize_v1(labeling)), 0xe2402704u) << "v1";

  cluster::ClusterConfig cfg;
  cfg.nodes.assign(3, cluster::NodeEndpoint{});
  cfg.replication = 2;
  cfg.key_shards = 64;
  cfg.seed = 0x5eed;
  std::string dir = temp_path("pin_parts_XXXXXX");
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::uint32_t node_pins[] = {0x2ef9323eu, 0xb8084001u, 0x0d9b50deu};
  const auto infos = cluster::write_partitions(labeling, cfg, dir, 4);
  ASSERT_EQ(infos.size(), 3u);
  for (std::uint32_t node = 0; node < 3; ++node) {
    EXPECT_EQ(digest(read_file(infos[node].path)), node_pins[node])
        << "partition node " << node;
  }
}

// A label whose buffer carries garbage past size_bits (from_span over a
// reused arena) checksums and serializes exactly like a clean copy: the
// writers mask each label's tail word instead of re-packing it.
TEST(StoreV3Format, StaleTailBitsNeverReachTheFile) {
  const Graph g = store_graph(300, 121);
  const Labeling clean = encode_labels(g);
  std::vector<Label> dirty_labels;
  std::size_t ragged = 0;
  for (const Label& l : clean.labels()) {
    std::vector<std::uint64_t> buf = l.words();
    if (l.size_bits() % 64 != 0) {
      buf.back() |= ~std::uint64_t{0} << (l.size_bits() % 64);
      ragged += 1;
    }
    dirty_labels.push_back(Label::from_span(buf.data(), l.size_bits()));
    ASSERT_EQ(label_spot_checksum(dirty_labels.back()),
              label_spot_checksum(l));
  }
  ASSERT_GT(ragged, clean.size() / 2);
  const Labeling dirty(std::move(dirty_labels));
  for (const std::size_t shards : {1u, 4u}) {
    EXPECT_EQ(StoreWriter::serialize(dirty, shards),
              StoreWriter::serialize(clean, shards))
        << shards << " shards";
  }
  EXPECT_EQ(LabelStore::serialize(dirty), LabelStore::serialize(clean));
  EXPECT_EQ(LabelStore::serialize_v1(dirty), LabelStore::serialize_v1(clean));
}

// ---------------------------------------------------------- lazy integrity

TEST(StoreV3Lazy, FirstTouchVerifiesOnlyTheTouchedShard) {
  const Graph g = store_graph(400, 107);
  const std::string path = temp_path("v3_lazy.plgl");
  StoreWriter::write_file(path, encode_labels(g), 4);
  const auto ms = MappedStore::open(path);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ms->shard_crc_state(s), ShardCrcState::kUnverified);
  }
  (void)ms->get(2, 0);  // first touch of shard 2 only
  EXPECT_EQ(ms->shard_crc_state(2), ShardCrcState::kVerified);
  EXPECT_EQ(ms->shard_crc_state(0), ShardCrcState::kUnverified);
  EXPECT_EQ(ms->shard_crc_state(1), ShardCrcState::kUnverified);
  EXPECT_EQ(ms->shard_crc_state(3), ShardCrcState::kUnverified);
}

TEST(StoreV3Lazy, CorruptShardVerdictIsStickyAndScoped) {
  const Graph g = store_graph(400, 108);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_corrupt.plgl");
  StoreWriter::write_file(path, labeling, 4);

  // Flip one bit inside shard 2's bits section, leaving the header and
  // directory intact: structure validates, the payload CRC must not.
  // (Scoped open: drop the mapping before rewriting the file it covers.)
  std::vector<std::uint8_t> bytes = read_file(path);
  {
    const auto ms_clean = MappedStore::open(path);
    const std::uint64_t region_off =
        store::kHeaderBytes + 4 * store::kDirEntryBytes +
        ms_clean->shard_bytes(0) + ms_clean->shard_bytes(1);
    bytes[static_cast<std::size_t>(region_off + ms_clean->shard_bytes(2) -
                                   1)] ^= 0x40;
  }
  write_file_bytes(path, bytes);

  const auto ms = MappedStore::open(path);  // structure still validates
  EXPECT_FALSE(ms->shard_intact(2));
  EXPECT_EQ(ms->shard_crc_state(2), ShardCrcState::kCorrupt);
  EXPECT_FALSE(ms->shard_intact(2));  // sticky, no re-verification
  EXPECT_THROW((void)ms->get(2, 0), DecodeError);
  EXPECT_THROW((void)ms->load_all(), DecodeError);
  // On-disk damage means the shard is unhealable from this file.
  EXPECT_THROW((void)ms->read_shard_labels(2), DecodeError);
  // Other shards are untouched and fully servable.
  EXPECT_TRUE(ms->shard_intact(0));
  EXPECT_EQ(ms->get(0, 0), labeling[0]);
}

// A hostile writer, not a bit flip: shard 0's offsets table is rewritten
// to point far outside the shard's bits section, and every checksum in
// the endorsement chain — the shard's region CRC and the directory CRC
// covering the patched entry — is recomputed so the file is
// bit-for-bit self-consistent. A matching CRC proves the bytes are what
// the writer wrote, not that the writer was honest: open() must still
// admit the file (its structure checks out), but the first touch of
// shard 0 must quarantine it via offsets-table validation instead of
// decoding out of bounds.
TEST(StoreV3Lazy, ForgedOffsetsTableWithValidCrcsIsQuarantined) {
  const Graph g = store_graph(400, 109);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_forged_offsets.plgl");
  StoreWriter::write_file(path, labeling, 4);

  std::vector<std::uint8_t> bytes = read_file(path);
  const std::size_t region_off =
      store::kHeaderBytes + 4 * store::kDirEntryBytes;
  {
    const auto ms_clean = MappedStore::open(path);
    const std::size_t region_len =
        static_cast<std::size_t>(ms_clean->shard_bytes(0));
    // offsets[1]: label 0 now claims to end ~128 GiB into the shard.
    store_u64le(bytes, region_off + 8, std::uint64_t{1} << 40);
    // Re-endorse the forgery: the region CRC over the patched table...
    store_u32le(bytes, store::kHeaderBytes + 32,
                crc32c(bytes.data() + region_off, region_len));
    // ...and the directory CRC over the entry whose crc field changed.
    store_u32le(bytes, store::kDirCrcAt,
                crc32c(bytes.data() + store::kHeaderBytes,
                       4 * store::kDirEntryBytes));
  }
  write_file_bytes(path, bytes);

  const auto ms = MappedStore::open(path);  // structure + CRCs all pass
  EXPECT_FALSE(ms->shard_intact(0));
  EXPECT_EQ(ms->shard_crc_state(0), ShardCrcState::kCorrupt);
  EXPECT_FALSE(ms->shard_intact(0));  // verdict is sticky
  EXPECT_THROW((void)ms->get(0, 0), DecodeError);
  EXPECT_THROW((void)ms->read_shard_labels(0), DecodeError);
  EXPECT_THROW((void)ms->load_all(), DecodeError);
  // The other shards' tables are genuine and still servable.
  EXPECT_TRUE(ms->shard_intact(1));
  EXPECT_NO_THROW((void)ms->get(1, 0));
}

// ---------------------------------------------------------- fault injection

TEST(StoreFault, InjectedMmapFailureSurfacesAndExpires) {
  const Graph g = store_graph(100, 109);
  const std::string path = temp_path("v3_mmapfail.plgl");
  StoreWriter::write_file(path, encode_labels(g), 2);

  fault::ScopedFault fp(
      fault::FaultPlan::parse_spec("seed=1,mmap-fail=1,budget=1"));
  EXPECT_THROW((void)MappedStore::open(path), DecodeError);
  EXPECT_EQ(fault::service_fault_counters().mmap_fails, 1u);
  // Budget exhausted: the next map attempt succeeds.
  const auto ms = MappedStore::open(path);
  EXPECT_EQ(ms->num_labels(), 100u);
}

TEST(StoreFault, MapFlipDamagesMappingNotDisk) {
  const Graph g = store_graph(400, 110);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_mapflip.plgl");
  StoreWriter::write_file(path, labeling, 4);

  fault::ScopedFault fp(
      fault::FaultPlan::parse_spec("seed=17,map-flip=12"));
  const auto ms = MappedStore::open(path);
  std::vector<bool> intact(4);
  std::size_t corrupt = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    intact[s] = ms->shard_intact(s);
    corrupt += intact[s] ? 0u : 1u;
  }
  ASSERT_GT(corrupt, 0u) << "12 flips landed in no shard region";
  EXPECT_EQ(fault::service_fault_counters().map_flips, 12u);

  for (std::size_t s = 0; s < 4; ++s) {
    if (intact[s]) continue;
    // The flips live in the private mapping only; a fresh read of the
    // file recovers the clean labels — the self-heal source.
    const std::vector<Label> healed = ms->read_shard_labels(s);
    ASSERT_EQ(healed.size(), ms->shard_labels(s));
    for (std::size_t i = 0; i < healed.size(); ++i) {
      EXPECT_EQ(healed[i],
                labeling[static_cast<Vertex>(ms->shard_map().shard_begin(s) +
                                             i)]);
    }
  }

  // Same plan, same file => the flip positions are a pure function of
  // (seed, span size): a second mapping sees the identical damage.
  const auto ms2 = MappedStore::open(path);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(ms2->shard_intact(s), intact[s]) << "s=" << s;
  }
}

// ------------------------------------------------------- mapped admission

TEST(SnapshotMappedAdmission, FromFileRoutesV3ToTheMapping) {
  const Graph g = store_graph(500, 111);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_admit.plgl");
  StoreWriter::write_file(path, labeling, 6);

  // num_shards=2 is deliberately wrong: the file's own partition wins.
  const auto snap = Snapshot::from_file(path, 2);
  ASSERT_EQ(snap->num_shards(), 6u);
  EXPECT_EQ(snap->size(), labeling.size());
  EXPECT_GT(snap->total_bytes(), 0u);
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    EXPECT_FALSE(snap->shard_quarantined(s));
    // Admission built plans without paying any CRC pass.
    EXPECT_EQ(snap->shard_crc_state(s), ShardCrcState::kUnverified);
  }
  for (std::uint64_t v = 0; v < snap->size(); ++v) {
    const LabelView* view = snap->view(v);
    ASSERT_NE(view, nullptr) << "v=" << v;
    EXPECT_EQ(snap->get(v), labeling[static_cast<Vertex>(v)]);
    EXPECT_EQ(snap->label_bits(v),
              labeling[static_cast<Vertex>(v)].size_bits());
    EXPECT_TRUE(snap->verify_label(v));
  }
  // The sweep touched every shard: all lazily verified by now.
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    EXPECT_EQ(snap->shard_crc_state(s), ShardCrcState::kVerified);
  }
}

TEST(SnapshotMappedAdmission, ViewServesNoAnswerFromUnverifiedBits) {
  const Graph g = store_graph(400, 112);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_gate.plgl");
  StoreWriter::write_file(path, labeling, 4);
  // Disk-corrupt shard 0's payload: the region's final byte is a bits
  // word, so the offsets table stays structurally valid (admission's
  // validate_offsets passes) and only the lazy CRC can notice.
  std::vector<std::uint8_t> bytes = read_file(path);
  {
    const auto ms_clean = MappedStore::open(path);
    bytes[static_cast<std::size_t>(store::kHeaderBytes +
                                   4 * store::kDirEntryBytes +
                                   ms_clean->shard_bytes(0) - 1)] ^= 0x02;
  }
  write_file_bytes(path, bytes);

  const auto snap = Snapshot::from_file(path, 4, StoreVerify::kStrict,
                                        /*allow_quarantine=*/true);
  // Admission does not fail — the corruption is found at first touch.
  EXPECT_EQ(snap->num_quarantined(), 0u);
  const std::uint64_t bad = snap->shard_map().shard_begin(0);
  EXPECT_EQ(snap->view(bad), nullptr);  // CRC gate, not a missing plan
  EXPECT_THROW((void)snap->get(bad), DecodeError);
  EXPECT_EQ(snap->shard_crc_state(0), ShardCrcState::kCorrupt);
  // A healthy shard of the same snapshot is unaffected.
  const std::uint64_t good = snap->shard_map().shard_begin(1);
  EXPECT_NE(snap->view(good), nullptr);
  EXPECT_EQ(snap->get(good), labeling[static_cast<Vertex>(good)]);
}

TEST(SnapshotMappedAdmission, StructurallyBadShardQuarantinesOrThrows) {
  const Graph g = store_graph(300, 113);
  const std::string path = temp_path("v3_badoffsets.plgl");
  StoreWriter::write_file(path, encode_labels(g), 3);
  // Make shard 0's offsets table structurally invalid (first entry must
  // be zero) without touching the header or directory.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[static_cast<std::size_t>(store::kHeaderBytes +
                                 3 * store::kDirEntryBytes)] = 1;
  write_file_bytes(path, bytes);

  // Strict: the admission failure propagates (through the parallel
  // builder's exception channel when workers > 1).
  EXPECT_THROW((void)Snapshot::from_file(path, 3, StoreVerify::kStrict,
                                         /*allow_quarantine=*/false,
                                         /*build_workers=*/3),
               DecodeError);
  // Quarantining: the shard is demoted at admission; its on-disk bytes
  // are genuinely corrupt (the poke broke the region CRC too), so no
  // heal source exists.
  const auto snap = Snapshot::from_file(path, 3, StoreVerify::kStrict,
                                        /*allow_quarantine=*/true);
  EXPECT_EQ(snap->num_quarantined(), 1u);
  EXPECT_TRUE(snap->shard_quarantined(0));
  EXPECT_FALSE(snap->shard_healable(0));
  EXPECT_FALSE(snap->shard_error(0).empty());
  EXPECT_FALSE(snap->shard_quarantined(1));
}

// prefetch_label is a cache hint and nothing else: it runs no lazy CRC
// (every shard of a freshly mapped snapshot stays unverified however many
// labels it touches) and does nothing on a quarantined shard, whose store
// and offsets table are gone.
TEST(SnapshotMappedAdmission, PrefetchLabelRunsNoCrcAndSkipsQuarantine) {
  const Graph g = store_graph(300, 117);
  const std::string path = temp_path("v3_prefetch.plgl");
  StoreWriter::write_file(path, encode_labels(g), 3);

  {
    const auto snap = Snapshot::from_file(path, 3);
    for (std::uint64_t v = 0; v < snap->size(); ++v) snap->prefetch_label(v);
    for (std::size_t s = 0; s < snap->num_shards(); ++s) {
      EXPECT_EQ(snap->shard_crc_state(s), ShardCrcState::kUnverified)
          << "s=" << s;
    }
  }  // unmapped before the file is rewritten

  // The structurally bad shard of the test above: quarantined at
  // admission, so its labels have no extent to hint.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[static_cast<std::size_t>(store::kHeaderBytes +
                                 3 * store::kDirEntryBytes)] = 1;
  write_file_bytes(path, bytes);
  const auto bad = Snapshot::from_file(path, 3, StoreVerify::kStrict,
                                       /*allow_quarantine=*/true);
  ASSERT_TRUE(bad->shard_quarantined(0));
  for (std::uint64_t v = 0; v < bad->size(); ++v) bad->prefetch_label(v);
  EXPECT_TRUE(bad->shard_quarantined(0));
  EXPECT_EQ(bad->num_quarantined(), 1u);
  for (std::size_t s = 0; s < bad->num_shards(); ++s) {
    EXPECT_EQ(bad->shard_crc_state(s), ShardCrcState::kUnverified)
        << "s=" << s;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------- plan builder

TEST(StoreV3Plans, EmptyEntriesGetInvalidPlansAndLeaveRealOnesAlone) {
  // Zero-length entries among real labels (a partition file's unowned
  // slots) and one malformed 3-bit label: the empty entries and the
  // malformed one get invalid plans, and every real label's plan equals
  // its plan from a table without the empty entries. An empty entry
  // shifts no bit position, so the plans must agree field for field.
  const Labeling labeling = encode_labels(store_graph(200, 122));
  std::vector<std::uint64_t> words(
      words_for_bits(labeling.stats().total_bits + 3) + 1);
  std::vector<std::uint64_t> plain{0};
  std::vector<std::uint64_t> mixed{0};
  std::vector<int> kind;  // 0 empty, 1 real, 2 malformed
  std::uint64_t pos = 0;
  for (std::size_t v = 0; v < labeling.size(); ++v) {
    for (std::size_t e = 0; e < v % 3; ++e) {
      mixed.push_back(pos);
      kind.push_back(0);
    }
    const Label& l = labeling[static_cast<Vertex>(v)];
    append_bits(words.data(), pos, l.words().data(), l.size_bits());
    pos += l.size_bits();
    plain.push_back(pos);
    mixed.push_back(pos);
    kind.push_back(1);
  }
  pos += 3;  // three zero bits: a gamma code that runs off its label
  mixed.push_back(pos);
  kind.push_back(2);

  const std::vector<LabelView> want =
      store::build_plans(words.data(), plain.data(), labeling.size());
  const std::vector<LabelView> got =
      store::build_plans(words.data(), mixed.data(), kind.size());
  ASSERT_EQ(got.size(), kind.size());
  std::size_t real = 0;
  for (std::size_t i = 0; i < kind.size(); ++i) {
    if (kind[i] == 1) {
      ASSERT_TRUE(want[real].valid());
      EXPECT_TRUE(got[i].plan_equals(want[real])) << "entry " << i;
      real += 1;
    } else {
      EXPECT_FALSE(got[i].valid()) << "entry " << i << " kind " << kind[i];
    }
  }
  EXPECT_EQ(real, labeling.size());
}

// ---------------------------------------------- parallel admission parity

/// Asserts two snapshots are observably identical: same labels, same
/// plan table (plan_equals — every parsed field, pointer excluded).
void expect_snapshots_identical(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_shards(), b.num_shards());
  ASSERT_EQ(a.total_bytes(), b.total_bytes());
  for (std::uint64_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a.get(v), b.get(v)) << "v=" << v;
    const LabelView* va = a.view(v);
    const LabelView* vb = b.view(v);
    ASSERT_EQ(va == nullptr, vb == nullptr) << "v=" << v;
    if (va != nullptr) {
      EXPECT_TRUE(va->plan_equals(*vb)) << "v=" << v;
    }
  }
}

TEST(SnapshotParallelAdmission, HeapBuildIdenticalToSerial) {
  const Graph g = store_graph(600, 114);
  const Labeling labeling = encode_labels(g);
  const auto serial = Snapshot::build(labeling, 8, false, /*workers=*/1);
  const auto parallel = Snapshot::build(labeling, 8, false, /*workers=*/4);
  expect_snapshots_identical(*serial, *parallel);
}

TEST(SnapshotParallelAdmission, FileLoadsIdenticalToSerial) {
  const Graph g = store_graph(600, 115);
  const Labeling labeling = encode_labels(g);
  const std::string v2 = temp_path("par_v2.plgl");
  const std::string v3 = temp_path("par_v3.plgl");
  LabelStore::save_file(v2, labeling);
  StoreWriter::write_file(v3, labeling, 8);
  expect_snapshots_identical(
      *Snapshot::from_file(v2, 8, StoreVerify::kStrict, false, 1),
      *Snapshot::from_file(v2, 8, StoreVerify::kStrict, false, 4));
  expect_snapshots_identical(
      *Snapshot::from_file(v3, 8, StoreVerify::kStrict, false, 1),
      *Snapshot::from_file(v3, 8, StoreVerify::kStrict, false, 4));
}

// ------------------------------------------------------ one shard layout

/// The same labels under the same partition look identical to the
/// serving layer whatever their source — an in-memory build, a v2 file
/// or a v3 file — and total_bytes() (STATS snapshot_bytes) counts the
/// same v3 region bytes for each. Demoting and healing a shard of the
/// mmap'd snapshot leaves both unchanged.
TEST(SnapshotSources, OneSizeAndOnePlanTableFromEverySource) {
  const Graph g = store_graph(700, 122);
  const Labeling labeling = encode_labels(g);
  const std::string v2 = temp_path("sources_v2.plgl");
  const std::string v3 = temp_path("sources_v3.plgl");
  LabelStore::save_file(v2, labeling);
  StoreWriter::write_file(v3, labeling, 6);

  const auto built = Snapshot::build(labeling, 6);
  const auto from_v2 = Snapshot::from_file(v2, 6);
  const auto from_v3 = Snapshot::from_file(v3, 6);
  ASSERT_EQ(from_v3->num_shards(), 6u);
  expect_snapshots_identical(*built, *from_v2);
  expect_snapshots_identical(*built, *from_v3);
  expect_snapshots_identical(*from_v2, *from_v3);
  EXPECT_EQ(from_v3->total_bytes(),
            MappedStore::open(v3)->file_bytes() - store::kHeaderBytes -
                6 * store::kDirEntryBytes);

  for (std::size_t s = 0; s < from_v3->num_shards(); ++s) {
    const auto healed =
        from_v3->with_quarantined_shard(s, "test demotion")->heal_shard(s);
    EXPECT_EQ(healed->total_bytes(), from_v3->total_bytes()) << "s=" << s;
    expect_snapshots_identical(*healed, *from_v3);
  }
}

// ------------------------------------------------------------ concurrency

TEST(SnapshotMappedConcurrency, FirstTouchRaceYieldsOneStickyVerdict) {
  const Graph g = store_graph(500, 116);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_race.plgl");
  StoreWriter::write_file(path, labeling, 4);
  // Disk-corrupt shard 3 so the race covers both verdicts.
  std::vector<std::uint8_t> bytes = read_file(path);
  bytes[bytes.size() - 5] ^= 0x10;
  write_file_bytes(path, bytes);

  const auto snap = Snapshot::from_file(path, 4, StoreVerify::kStrict,
                                        /*allow_quarantine=*/true);
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&snap, &labeling, &wrong, t] {
      Rng rng = stream_rng(116, t);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.next_below(snap->size());
        // view() and get() race on the shard's once-flag; every thread
        // must observe a single coherent verdict per shard.
        const LabelView* view = snap->view(v);
        try {
          const Label l = snap->get(v);
          if (view == nullptr ||
              l != labeling[static_cast<Vertex>(v)]) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (const DecodeError&) {
          // Thrown iff the shard's CRC failed, in which case the view
          // gate must have refused a plan as well.
          if (view != nullptr ||
              snap->shard_crc_state(snap->shard_map().shard_of(v)) !=
                  ShardCrcState::kCorrupt) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(snap->shard_crc_state(3), ShardCrcState::kCorrupt);
  EXPECT_EQ(snap->shard_crc_state(0), ShardCrcState::kVerified);
}

// ------------------------------------------------------ quarantine + heal

TEST(SnapshotMappedHeal, MapFlipCorruptionQuarantinesThenSelfHeals) {
  const Graph g = store_graph(600, 117);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_heal.plgl");
  StoreWriter::write_file(path, labeling, 6);

  // The plan flips bits in the private mapping at open; the disk file
  // stays clean — exactly the damage read_shard_labels can heal.
  fault::ScopedFault fp(
      fault::FaultPlan::parse_spec("seed=23,map-flip=24"));
  auto snap = Snapshot::from_file(path, 6, StoreVerify::kStrict,
                                  /*allow_quarantine=*/true);
  ASSERT_EQ(snap->size(), labeling.size());

  ServiceOptions opt;
  opt.threads = 2;
  opt.chunk = 16;
  opt.quarantine_after = 1;
  opt.heal = true;
  opt.heal_base_ms = 1;
  opt.heal_max_ms = 4;
  QueryService svc(std::move(snap), opt);

  // Drive queries across every shard: corrupt shards answer kCorrupt on
  // first touch (the lazy CRC catches the flips), get demoted, and the
  // healer re-admits them from the clean on-disk bytes.
  const auto oracle = [&g](std::uint64_t u, std::uint64_t v) {
    return u != v &&
           g.has_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  };
  Rng rng = stream_rng(117, 9);
  ASSERT_TRUE(eventually(
      [&] {
        for (int i = 0; i < 200; ++i) {
          (void)svc.query({rng.next_below(labeling.size()),
                           rng.next_below(labeling.size())});
        }
        return svc.stats().quarantined_shards == 0 &&
               svc.stats().heal_successes > 0;
      },
      std::chrono::seconds(30)))
      << "healer did not clear quarantine; stats: " << svc.stats().to_json();

  // Oracle check after heal: the snapshot (healed shards now in-memory)
  // answers every query correctly — the corruption never cost the
  // snapshot, only the damaged shards' mapping.
  std::size_t checked = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t u = rng.next_below(labeling.size());
    const std::uint64_t v = rng.next_below(labeling.size());
    const auto r = svc.query({u, v});
    ASSERT_EQ(r.status, QueryStatus::kOk) << "u=" << u << " v=" << v;
    ASSERT_EQ(r.adjacent, oracle(u, v)) << "u=" << u << " v=" << v;
    ++checked;
  }
  EXPECT_EQ(checked, 2000u);
  EXPECT_GT(svc.stats().heal_successes, 0u);
}

TEST(SnapshotMappedHeal, QuarantineExtractsHealSourceFromDisk) {
  const Graph g = store_graph(300, 118);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_demote.plgl");
  StoreWriter::write_file(path, labeling, 3);

  // seed=28 is chosen so the 16 flips leave at least one shard with a
  // structurally valid offsets table but a rotted payload: the exact
  // "CRC failure at query time" shape with_quarantined_shard handles.
  fault::ScopedFault fp(
      fault::FaultPlan::parse_spec("seed=28,map-flip=16"));
  const auto snap = Snapshot::from_file(path, 3, StoreVerify::kStrict,
                                        /*allow_quarantine=*/true);
  // Find a shard whose mapping the flips damaged.
  std::size_t bad = snap->num_shards();
  for (std::size_t s = 0; s < snap->num_shards(); ++s) {
    if (snap->shard_quarantined(s)) continue;  // offsets-table hit
    if (snap->view(snap->shard_map().shard_begin(s)) == nullptr) {
      bad = s;
      break;
    }
  }
  ASSERT_LT(bad, snap->num_shards()) << "16 flips corrupted no shard";

  const auto demoted = snap->with_quarantined_shard(bad, "test demotion");
  ASSERT_TRUE(demoted->shard_quarantined(bad));
  ASSERT_TRUE(demoted->shard_healable(bad))
      << "disk is clean; the heal source must come from a fresh read";
  const auto healed = demoted->heal_shard(bad);
  EXPECT_FALSE(healed->shard_quarantined(bad));
  // The healed shard is an in-memory image whose CRC ran at admission.
  EXPECT_EQ(healed->shard_crc_state(bad), ShardCrcState::kVerified);
  const std::uint64_t begin = healed->shard_map().shard_begin(bad);
  const std::uint64_t end = healed->shard_map().shard_end(bad);
  for (std::uint64_t v = begin; v < end; ++v) {
    EXPECT_EQ(healed->get(v), labeling[static_cast<Vertex>(v)]);
  }
}

TEST(SnapshotMappedHeal, LazyCrcFailureIsChargedToTheFailingShard) {
  const Graph g = store_graph(400, 119);
  const Labeling labeling = encode_labels(g);
  const std::string path = temp_path("v3_blame.plgl");
  StoreWriter::write_file(path, labeling, 4);

  // Find a map-flip seed whose one flip lands in a shard's payload: that
  // shard admits (its offsets table is intact) and fails its lazy CRC on
  // first touch, while the other shards stay clean. The flip positions
  // are a pure function of (seed, span size), so the search is
  // deterministic.
  std::shared_ptr<const Snapshot> snap;
  std::size_t bad = 4;
  std::size_t good = 4;
  for (std::uint64_t seed = 1; seed < 64 && bad == 4; ++seed) {
    fault::ScopedFault fp(fault::FaultPlan::parse_spec(
        "seed=" + std::to_string(seed) + ",map-flip=1"));
    snap = Snapshot::from_file(path, 4, StoreVerify::kStrict,
                               /*allow_quarantine=*/true);
    bad = good = 4;
    for (std::size_t s = 0; s < snap->num_shards(); ++s) {
      if (snap->shard_quarantined(s)) continue;
      const bool intact =
          snap->view(snap->shard_map().shard_begin(s)) != nullptr;
      if (!intact && bad == 4) bad = s;
      if (intact && good == 4) good = s;
    }
    if (good == 4) bad = 4;
  }
  ASSERT_LT(bad, 4u) << "no seed put its flip in one shard's payload";
  ASSERT_LT(good, 4u);

  // u's shard is clean and v's failed its CRC: view(v) is null, the
  // materializing fallback fetches u fine and get(v) throws. Every
  // failure must count against v's shard, so it is v's shard that
  // reaches quarantine_after and is demoted, and u's keeps serving.
  QueryService svc(snap, ServiceOptions{.threads = 1,
                                        .quarantine_after = 3,
                                        .heal = false});
  const std::uint64_t u = snap->shard_map().shard_begin(good);
  const std::uint64_t v = snap->shard_map().shard_begin(bad);
  snap.reset();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.query({u, v}).status, QueryStatus::kCorrupt);
  }
  const auto after = svc.snapshot();
  EXPECT_TRUE(after->shard_quarantined(bad));
  EXPECT_FALSE(after->shard_quarantined(good));
  EXPECT_EQ(after->num_quarantined(), 1u);
  EXPECT_EQ(svc.query({u, u}).status, QueryStatus::kOk);
  EXPECT_EQ(svc.stats().corruptions, 3u);
}

// ------------------------------------------------------------ differential

/// Label bits, LSB-first, as a byte buffer corrupt_buffer can chew on.
std::vector<std::uint8_t> label_to_bytes(const Label& l) {
  const std::size_t nbytes = (l.size_bits() + 7) / 8;
  std::vector<std::uint8_t> bytes(nbytes, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>(l.words()[i / 8] >> (8 * (i % 8)));
  }
  return bytes;
}

Label label_from_bytes(const std::vector<std::uint8_t>& bytes,
                       std::size_t size_bits) {
  size_bits = std::min(size_bits, bytes.size() * 8);
  BitWriter w;
  w.reserve_bits(size_bits);
  for (std::size_t b = 0; b < size_bits; ++b) {
    w.write_bit(((bytes[b / 8] >> (b % 8)) & 1u) != 0);
  }
  return Label::from_writer(std::move(w));
}

/// Outcome of an adjacency attempt: an answer or the DecodeError text.
struct Outcome {
  bool threw = false;
  bool answer = false;
  std::string what;

  bool operator==(const Outcome&) const = default;
};

/// The serving pipeline an engine worker runs against a snapshot: the
/// zero-copy plan pair when both plans exist, else materialize + oracle
/// decode. Parse/decode errors surface as the throw arm.
Outcome snapshot_adjacent(const Snapshot& snap, std::uint64_t u,
                          std::uint64_t v) {
  Outcome o;
  try {
    const LabelView* vu = snap.view(u);
    const LabelView* vv = snap.view(v);
    if (vu != nullptr && vv != nullptr) {
      o.answer = label_view_adjacent(*vu, *vv);
    } else {
      o.answer = thin_fat_adjacent(snap.get(u), snap.get(v));
    }
  } catch (const DecodeError& e) {
    o.threw = true;
    o.what = e.what();
  }
  return o;
}

/// The differential contract of the two byte owners: a snapshot built in
/// memory (one-shard v3 images) and a v3 mmap'd snapshot of the SAME
/// (corrupted) label set must be indistinguishable to the serving layer
/// — answer for answer, throw for throw — across thousands of
/// FaultPlan-corrupted labels. Under ASan/UBSan this also proves the
/// zero-copy loads never leave their bytes even when a corrupt header
/// lies about its payload.
TEST(StoreDifferential, MemoryV3VsFileV3AnswerForAnswerThrowForThrow) {
  const std::uint64_t kSeeds[] = {119, 120, 121};
  std::size_t corrupted_total = 0;
  std::size_t pair_checks = 0;
  for (const std::uint64_t seed : kSeeds) {
    const Graph g = store_graph(3600, seed);
    const Labeling clean = encode_labels(g);

    // Corrupt every label independently, pre-serialization: both stores
    // then hold byte-identical garbage whose shard CRCs pass.
    fault::FaultPlan plan;
    plan.bit_flips = 2;
    std::vector<Label> labels;
    labels.reserve(clean.size());
    for (std::size_t v = 0; v < clean.size(); ++v) {
      plan.seed = seed * 1'000'003 + v;
      std::vector<std::uint8_t> bytes =
          label_to_bytes(clean[static_cast<Vertex>(v)]);
      if (v % 7 == 0 && bytes.size() > 2) {
        bytes.resize(bytes.size() / 2);  // truncation species
      } else {
        fault::corrupt_buffer(bytes, plan);
      }
      labels.push_back(label_from_bytes(
          bytes, clean[static_cast<Vertex>(v)].size_bits()));
      ++corrupted_total;
    }
    const Labeling corrupt(std::move(labels));

    const std::string v3 = temp_path("diff_v3_" + std::to_string(seed));
    StoreWriter::write_file(v3, corrupt, 8);

    const auto memory = Snapshot::build(corrupt, 8, /*allow_quarantine=*/true);
    const auto mapped = Snapshot::from_file(v3, 8, StoreVerify::kStrict,
                                            /*allow_quarantine=*/true);
    ASSERT_EQ(memory->size(), mapped->size());
    ASSERT_EQ(memory->num_quarantined(), 0u);
    ASSERT_EQ(mapped->num_quarantined(), 0u);

    // Per-label: identical bytes, identical plan verdicts.
    for (std::uint64_t v = 0; v < memory->size(); ++v) {
      ASSERT_EQ(memory->get(v), mapped->get(v)) << "v=" << v;
      const LabelView* memv = memory->view(v);
      const LabelView* mv = mapped->view(v);
      ASSERT_EQ(memv == nullptr, mv == nullptr) << "v=" << v;
      if (memv != nullptr) {
        ASSERT_TRUE(memv->plan_equals(*mv)) << "v=" << v;
      }
    }
    // Per-pair: the full serving pipeline agrees, including which
    // queries throw and with what message.
    Rng rng = stream_rng(seed, 2);
    for (int i = 0; i < 1500; ++i) {
      const std::uint64_t u = rng.next_below(memory->size());
      const std::uint64_t v = rng.next_below(memory->size());
      const Outcome a = snapshot_adjacent(*memory, u, v);
      const Outcome b = snapshot_adjacent(*mapped, u, v);
      ASSERT_EQ(a.threw, b.threw) << "u=" << u << " v=" << v;
      ASSERT_EQ(a.answer, b.answer) << "u=" << u << " v=" << v;
      ASSERT_EQ(a.what, b.what) << "u=" << u << " v=" << v;
      ++pair_checks;
    }
  }
  EXPECT_GT(corrupted_total, 10'000u);
  EXPECT_EQ(pair_checks, 4500u);
}

}  // namespace
}  // namespace plg
