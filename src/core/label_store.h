// LabelStore: compact, integrity-checked persistence for a whole Labeling.
//
// The peer-to-peer story distributes labels to vertices, but any real
// deployment also needs to ship, cache and reload the label set (the
// encoder is centralized and one-off). Label files are long-lived serving
// artifacts that cross unreliable channels, so the store's job is not just
// compactness but *detection*: a flipped bit must surface as a
// CorruptionError naming the damaged section, never as a silently wrong
// adjacency answer.
//
// On-disk format, version 2 (all integers little-endian):
//
//   [ 0) magic   u32  "PLGL"
//   [ 4) version u32  = 2
//   [ 8) n       u64  number of labels
//   [16) total_bits u64  redundant copy of offsets[n] (cross-checked)
//   [24) header_crc    u32  CRC-32C over bytes [0, 24)
//   [28) offsets_crc   u32  CRC-32C over the offsets section
//   [32) labelsums_crc u32  CRC-32C over the labelsums section
//   [36) bits_crc      u32  CRC-32C over the packed-bits section
//   [40) offsets:   (n+1) x u64 cumulative bit offsets
//        labelsums: n x u8 per-label spot checksums (folded CRC-32C of the
//                   label's canonical words)
//        bits:      words_for_bits(total_bits) x u64 packed label bits
//
// Version 1 (the seed format: magic | version | n | offsets | bits, no
// checksums) is still readable; verification degrades to structural
// checks only. New blobs are always written as v2.
//
// Parsing modes: kStrict validates every section CRC during parse (one
// extra pass over the blob); kLenient performs structural validation only
// and will happily return a store whose bits are corrupt — callers opting
// into kLenient accept possibly-wrong answers in exchange for
// availability (the documented decode contract makes that safe).
//
// Thread-safety contract (the query service serves shared snapshots from
// this class): a LabelStore is deeply immutable after parse() returns.
// Every const member — get(), size(), size_bits(), verify_label(),
// load_all(), version() — reads only the three private vectors, which are
// never written again; there are no mutable members, no lazy caches, and
// no global state on the read path. Any number of threads may therefore
// call const members on one shared instance concurrently without
// synchronization. (Audited + enforced by the ConstReadPath tests in
// tests/test_service.cpp, which hammer a shared store under TSan.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/labeling.h"

namespace plg {

/// How much integrity checking parse()/open_file() perform.
enum class StoreVerify {
  kStrict,   // validate all section checksums (v2); throw CorruptionError
  kLenient,  // structural checks only; corrupt bits may load
};

/// Non-throwing verification verdict for one blob (plgtool verify).
struct StoreCheckResult {
  bool ok = true;
  std::uint32_t version = 0;   // 0 when the header itself is unreadable
  std::string section;         // failing section when !ok
  std::uint64_t byte_offset = 0;  // start of the failing section / field
  std::string message;         // human-readable diagnosis
};

/// Canonical per-label spot checksum: CRC-32C over (size_bits, the
/// label's words with the tail word masked), folded to 8 bits. Shared
/// by the v2 store's labelsums section and the sharded v3 layout
/// (store/store_writer.h), so the two formats agree on what "this label
/// is intact" means and a pack migration preserves every sum.
std::uint8_t label_spot_checksum(const Label& l);

class LabelStore {
 public:
  /// Serializes a labeling into a fresh v2 blob (checksummed).
  static std::vector<std::uint8_t> serialize(const Labeling& labeling);

  /// Serializes in the legacy v1 layout (no checksums). Kept so tests can
  /// pin backward compatibility with blobs written by older builds.
  static std::vector<std::uint8_t> serialize_v1(const Labeling& labeling);

  /// Parses a blob (copies it in). Throws DecodeError on malformed input;
  /// under kStrict additionally throws CorruptionError (with section name
  /// and byte offset) on any checksum mismatch.
  static LabelStore parse(std::vector<std::uint8_t> blob,
                          StoreVerify verify = StoreVerify::kStrict);

  /// Full verification without throwing: structural checks plus (v2) all
  /// section checksums. Reports the first failure found.
  static StoreCheckResult check(const std::vector<std::uint8_t>& blob);

  /// Reads the whole store back into a Labeling.
  Labeling load_all() const;

  /// Number of labels stored.
  std::size_t size() const noexcept { return offsets_.size() - 1; }

  /// Format version this store was parsed from (2 for freshly built).
  std::uint32_t version() const noexcept { return version_; }

  /// Materializes label i (bit-exact copy).
  Label get(std::size_t i) const;

  /// Size in bits of label i, without materializing it.
  std::size_t size_bits(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Zero-copy access to the packed-bits section, for decode plans
  /// (core/label_view.h) that alias the store instead of materializing
  /// labels. Label i occupies bits [bit_offset(i), bit_offset(i + 1)) of
  /// bits_data(). The pointer is valid for the store's lifetime; the
  /// words are immutable after parse (same contract as get()).
  const std::uint64_t* bits_data() const noexcept { return bits_.data(); }
  std::uint64_t bit_offset(std::size_t i) const { return offsets_[i]; }

  /// Spot-check: re-derives label i's checksum and compares it against the
  /// stored per-label sum. Always true for v1 stores (no sums persisted).
  bool verify_label(std::size_t i) const;

  /// File round trip helpers. Throw DecodeError / EncodeError on IO
  /// failure; open_file honors the requested verification mode.
  static void save_file(const std::string& path, const Labeling& labeling);
  static LabelStore open_file(const std::string& path,
                              StoreVerify verify = StoreVerify::kStrict);

 private:
  LabelStore() = default;
  std::uint32_t version_ = 2;
  std::vector<std::uint64_t> offsets_;   // n+1 cumulative bit offsets
  std::vector<std::uint8_t> labelsums_;  // n per-label checksums (v2)
  std::vector<std::uint64_t> bits_;      // packed label bits
};

}  // namespace plg
