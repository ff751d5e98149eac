#include "core/label_store.h"

#include <cstring>
#include <fstream>

#include "util/bit_stream.h"
#include "util/bits.h"
#include "util/crc32.h"
#include "util/errors.h"
#include "util/fault_injection.h"

namespace plg {

namespace {

constexpr std::uint32_t kMagic = 0x4c474c50;  // "PLGL" little-endian
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kVersionV2 = 2;

// v2 layout constants (see label_store.h for the full map).
constexpr std::size_t kHeaderBytes = 24;     // magic..total_bits
constexpr std::size_t kHeaderCrcAt = 24;
constexpr std::size_t kOffsetsCrcAt = 28;
constexpr std::size_t kLabelsumsCrcAt = 32;
constexpr std::size_t kBitsCrcAt = 36;
constexpr std::size_t kSectionsStart = 40;

template <typename T>
void append(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
void poke(std::vector<std::uint8_t>& out, std::size_t at, T value) {
  std::memcpy(out.data() + at, &value, sizeof(T));
}

// plglint: wire-read
template <typename T>
T read_at(const std::vector<std::uint8_t>& blob, std::size_t& pos) {
  if (pos + sizeof(T) > blob.size()) {
    throw DecodeError("LabelStore: truncated blob");
  }
  T value;
  std::memcpy(&value, blob.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

/// Appends the packed-bits section of v1/v2: every label back to back,
/// each one masked at its tail word by append_bits.
void append_packed_bits(std::vector<std::uint8_t>& out,
                        const Labeling& labeling, std::uint64_t total_bits) {
  const std::size_t at = out.size();
  out.resize(at + words_for_bits(total_bits) * sizeof(std::uint64_t));
  std::uint64_t pos = 0;
  for (const Label& l : labeling.labels()) {
    append_bits(out.data() + at, pos, l.words().data(), l.size_bits());
    pos += l.size_bits();
  }
}

}  // namespace

// CRCs the label's own words with the tail word masked, so stale bits
// past size_bits in the source buffer never change the sum.
std::uint8_t label_spot_checksum(const Label& l) {
  const std::uint64_t bits = l.size_bits();
  const std::uint64_t* words = l.words().data();
  const std::size_t whole = bits / 64;
  std::uint32_t crc = crc32c(&bits, sizeof(bits));
  crc = crc32c(words, whole * sizeof(std::uint64_t), crc);
  if (bits % 64 != 0) {
    const std::uint64_t tail =
        words[whole] & ((std::uint64_t{1} << (bits % 64)) - 1);
    crc = crc32c(&tail, sizeof(tail), crc);
  }
  return static_cast<std::uint8_t>(crc ^ (crc >> 8) ^ (crc >> 16) ^
                                   (crc >> 24));
}

std::vector<std::uint8_t> LabelStore::serialize(const Labeling& labeling) {
  const auto n = static_cast<std::uint64_t>(labeling.size());

  std::uint64_t total_bits = 0;
  for (const Label& l : labeling.labels()) total_bits += l.size_bits();

  std::vector<std::uint8_t> out;
  out.reserve(kSectionsStart + (n + 1) * sizeof(std::uint64_t) + n +
              words_for_bits(total_bits) * sizeof(std::uint64_t));
  append(out, kMagic);
  append(out, kVersionV2);
  append(out, n);
  append(out, total_bits);
  append(out, std::uint32_t{0});  // header_crc, patched below
  append(out, std::uint32_t{0});  // offsets_crc
  append(out, std::uint32_t{0});  // labelsums_crc
  append(out, std::uint32_t{0});  // bits_crc

  const std::size_t offsets_start = out.size();
  std::uint64_t offset = 0;
  append(out, offset);
  for (const Label& l : labeling.labels()) {
    offset += l.size_bits();
    append(out, offset);
  }
  const std::size_t labelsums_start = out.size();
  for (const Label& l : labeling.labels()) append(out, label_spot_checksum(l));

  const std::size_t bits_start = out.size();
  append_packed_bits(out, labeling, total_bits);

  poke(out, kHeaderCrcAt, crc32c(out.data(), kHeaderBytes));
  poke(out, kOffsetsCrcAt,
       crc32c(out.data() + offsets_start, labelsums_start - offsets_start));
  poke(out, kLabelsumsCrcAt,
       crc32c(out.data() + labelsums_start, bits_start - labelsums_start));
  poke(out, kBitsCrcAt, crc32c(out.data() + bits_start, out.size() - bits_start));
  return out;
}

std::vector<std::uint8_t> LabelStore::serialize_v1(const Labeling& labeling) {
  std::vector<std::uint8_t> out;
  append(out, kMagic);
  append(out, kVersionV1);
  append(out, static_cast<std::uint64_t>(labeling.size()));

  std::uint64_t offset = 0;
  append(out, offset);
  for (const Label& l : labeling.labels()) {
    offset += l.size_bits();
    append(out, offset);
  }
  append_packed_bits(out, labeling, offset);
  return out;
}

// plglint: untrusted-input
LabelStore LabelStore::parse(std::vector<std::uint8_t> blob,
                             StoreVerify verify) {
  std::size_t pos = 0;
  if (read_at<std::uint32_t>(blob, pos) != kMagic) {
    throw DecodeError("LabelStore: bad magic");
  }
  const auto version = read_at<std::uint32_t>(blob, pos);
  if (version == 3) {
    // The sharded v3 layout is mmap-native and deliberately not parsed
    // into heap vectors; point callers at the reader that serves it.
    throw DecodeError(
        "LabelStore: version 3 store — open via store::MappedStore "
        "(Snapshot::from_file and plgtool handle this automatically)");
  }
  if (version != kVersionV1 && version != kVersionV2) {
    throw DecodeError("LabelStore: unsupported version " +
                      std::to_string(version));
  }
  const auto n = read_at<std::uint64_t>(blob, pos);

  LabelStore store;
  store.version_ = version;

  if (version == kVersionV2) {
    const auto declared_total_bits = read_at<std::uint64_t>(blob, pos);
    const auto header_crc = read_at<std::uint32_t>(blob, pos);
    const auto offsets_crc = read_at<std::uint32_t>(blob, pos);
    const auto labelsums_crc = read_at<std::uint32_t>(blob, pos);
    const auto bits_crc = read_at<std::uint32_t>(blob, pos);

    // Validate the header checksum before trusting any count it declares:
    // a flipped bit in n or total_bits must never drive an allocation.
    if (verify == StoreVerify::kStrict &&
        crc32c(blob.data(), kHeaderBytes) != header_crc) {
      throw CorruptionError("header", 0, "header checksum mismatch");
    }

    // Structural bounds: every declared section must fit the actual blob
    // *before* anything is allocated (no allocation bombs from a corrupt
    // header, even in lenient mode).
    const std::uint64_t body = blob.size() - kSectionsStart;
    if (n > body / (sizeof(std::uint64_t) + 1)) {
      throw DecodeError("LabelStore: declared label count " +
                        std::to_string(n) + " exceeds blob size");
    }
    const std::uint64_t offsets_bytes = (n + 1) * sizeof(std::uint64_t);
    if (declared_total_bits / 8 > body) {
      throw DecodeError("LabelStore: declared bit count exceeds blob size");
    }
    const std::uint64_t words = words_for_bits(declared_total_bits);
    const std::uint64_t expected =
        kSectionsStart + offsets_bytes + n + words * sizeof(std::uint64_t);
    if (expected != blob.size()) {
      throw DecodeError(
          "LabelStore: blob size " + std::to_string(blob.size()) +
          " does not match declared sections (" + std::to_string(expected) +
          " bytes)");
    }
    const std::size_t offsets_start = kSectionsStart;
    const std::size_t labelsums_start = offsets_start + offsets_bytes;
    const std::size_t bits_start = labelsums_start + n;

    if (verify == StoreVerify::kStrict) {
      if (crc32c(blob.data() + offsets_start, offsets_bytes) != offsets_crc) {
        throw CorruptionError("offsets", offsets_start,
                              "offset-table checksum mismatch");
      }
      if (crc32c(blob.data() + labelsums_start, n) != labelsums_crc) {
        throw CorruptionError("labelsums", labelsums_start,
                              "per-label checksum section mismatch");
      }
      if (crc32c(blob.data() + bits_start, words * sizeof(std::uint64_t)) !=
          bits_crc) {
        throw CorruptionError("bits", bits_start,
                              "packed-bits checksum mismatch");
      }
    }

    fault::check_untrusted_alloc(offsets_bytes + words * sizeof(std::uint64_t),
                                 "LabelStore::parse");
    store.offsets_.resize(n + 1);
    pos = offsets_start;
    for (std::size_t i = 0; i <= n; ++i) {
      store.offsets_[i] = read_at<std::uint64_t>(blob, pos);
      if (i > 0 && store.offsets_[i] < store.offsets_[i - 1]) {
        throw DecodeError("LabelStore: non-monotone offsets");
      }
    }
    if (store.offsets_.front() != 0) {
      throw DecodeError("LabelStore: first offset must be zero");
    }
    if (store.offsets_.back() != declared_total_bits) {
      throw DecodeError(
          "LabelStore: offset table disagrees with declared bit count");
    }
    store.labelsums_.assign(blob.begin() + static_cast<std::ptrdiff_t>(labelsums_start),
                            blob.begin() + static_cast<std::ptrdiff_t>(bits_start));
    store.bits_.resize(words);
    pos = bits_start;
    for (std::size_t i = 0; i < words; ++i) {
      store.bits_[i] = read_at<std::uint64_t>(blob, pos);
    }
    return store;
  }

  // Version 1: no checksums; structural validation only. Bound every
  // declared count against the actual blob size before allocating.
  const std::uint64_t body = blob.size() - pos;
  if (n > body / sizeof(std::uint64_t)) {
    throw DecodeError("LabelStore: declared label count " + std::to_string(n) +
                      " exceeds blob size");
  }
  fault::check_untrusted_alloc((n + 1) * sizeof(std::uint64_t),
                               "LabelStore::parse");
  store.offsets_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    store.offsets_[i] = read_at<std::uint64_t>(blob, pos);
    if (i > 0 && store.offsets_[i] < store.offsets_[i - 1]) {
      throw DecodeError("LabelStore: non-monotone offsets");
    }
  }
  const std::uint64_t total_bits = store.offsets_.back();
  if (total_bits / 8 > blob.size() - pos + 7) {
    throw DecodeError("LabelStore: declared bit count exceeds blob size");
  }
  const std::size_t words = words_for_bits(total_bits);
  fault::check_untrusted_alloc(words * sizeof(std::uint64_t),
                               "LabelStore::parse");
  store.bits_.resize(words);
  for (std::size_t i = 0; i < words; ++i) {
    store.bits_[i] = read_at<std::uint64_t>(blob, pos);
  }
  return store;
}

StoreCheckResult LabelStore::check(const std::vector<std::uint8_t>& blob) {
  StoreCheckResult result;
  if (blob.size() >= 8) {
    std::memcpy(&result.version, blob.data() + 4, sizeof(result.version));
  }
  try {
    const LabelStore store = parse(blob, StoreVerify::kStrict);
    // Sections verified; cross-check every per-label sum against the bits
    // it summarizes (catches encoder bugs and offset/bits disagreement
    // that happens to keep each section's CRC intact).
    for (std::size_t i = 0; i < store.size(); ++i) {
      if (!store.verify_label(i)) {
        result.ok = false;
        result.section = "labelsums";
        const std::uint64_t offsets_bytes =
            (store.size() + 1) * sizeof(std::uint64_t);
        result.byte_offset = kSectionsStart + offsets_bytes + i;
        result.message =
            "label " + std::to_string(i) + " fails its spot checksum";
        return result;
      }
    }
  } catch (const CorruptionError& e) {
    result.ok = false;
    result.section = e.section();
    result.byte_offset = e.byte_offset();
    result.message = e.what();
  } catch (const DecodeError& e) {
    result.ok = false;
    result.section = "structure";
    result.byte_offset = 0;
    result.message = e.what();
  }
  return result;
}

Label LabelStore::get(std::size_t i) const {
  if (i + 1 >= offsets_.size()) {
    throw DecodeError("LabelStore: label index out of range");
  }
  // O(1) random access: start the reader at the containing word and
  // discard only the in-word bit offset.
  const std::uint64_t start = offsets_[i];
  BitReader r(bits_.data() + start / 64,
              offsets_.back() - (start / 64) * 64);
  if (start % 64 != 0) (void)r.read_bits(static_cast<int>(start % 64));

  BitWriter w;
  std::size_t remaining = offsets_[i + 1] - offsets_[i];
  while (remaining > 0) {
    const int chunk = static_cast<int>(std::min<std::size_t>(64, remaining));
    w.write_bits(r.read_bits(chunk), chunk);
    remaining -= static_cast<std::size_t>(chunk);
  }
  return Label::from_writer(std::move(w));
}

bool LabelStore::verify_label(std::size_t i) const {
  if (i + 1 >= offsets_.size()) {
    throw DecodeError("LabelStore: label index out of range");
  }
  if (labelsums_.empty()) return true;  // v1 store: nothing persisted
  return label_spot_checksum(get(i)) == labelsums_[i];
}

Labeling LabelStore::load_all() const {
  std::vector<Label> labels;
  labels.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) labels.push_back(get(i));
  return Labeling(std::move(labels));
}

void LabelStore::save_file(const std::string& path,
                           const Labeling& labeling) {
  const auto blob = serialize(labeling);
  std::ofstream file(path, std::ios::binary);
  if (!file) throw EncodeError("LabelStore: cannot open " + path);
  if (fault::enabled()) {
    // Route through the fault wrapper so injected disk-full faults
    // exercise the same stream-state checks as real ones.
    fault::FaultOutputStream out(file, fault::active_plan());
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    out.flush();
    if (!out) throw EncodeError("LabelStore: write failed for " + path);
  } else {
    file.write(reinterpret_cast<const char*>(blob.data()),
               static_cast<std::streamsize>(blob.size()));
  }
  file.flush();
  if (!file) throw EncodeError("LabelStore: write failed for " + path);
}

LabelStore LabelStore::open_file(const std::string& path, StoreVerify verify) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DecodeError("LabelStore: cannot open " + path);
  std::vector<std::uint8_t> blob(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  fault::on_read_buffer(blob);
  return parse(std::move(blob), verify);
}

}  // namespace plg
