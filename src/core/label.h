// Label: an immutable bit string assigned to one vertex.
//
// This is the paper's L(v) in {0,1}^* — decoders receive two Labels and
// nothing else (Section 2). Size is tracked at bit granularity so that
// measured label sizes can be compared against the paper's bounds exactly.
//
// Thread-safety: immutable after construction; reader() hands out a
// by-value cursor, so concurrent reads of one shared Label never race.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bit_stream.h"
#include "util/lifetime.h"

namespace plg {

class Label {
 public:
  Label() = default;

  /// Takes ownership of a finished BitWriter's buffer.
  static Label from_writer(BitWriter&& writer) {
    Label l;
    l.bits_ = writer.size_bits();
    l.words_ = std::move(writer).take_words();
    return l;
  }

  /// Copies `bits` bits out of a word buffer (e.g. a reused arena
  /// BitWriter). Unlike from_writer, the source keeps its capacity for
  /// the next label and the copy is allocated at exact size — no growth
  /// slack rides along into the immutable label.
  static Label from_span(const std::uint64_t* words, std::size_t bits) {
    Label l;
    l.bits_ = bits;
    l.words_.assign(words, words + (bits + 63) / 64);
    return l;
  }

  /// Takes ownership of a word buffer holding exactly `bits` bits in the
  /// BitWriter layout (low word first, zero padding) — for encoders that
  /// patch fields in place after laying a label out.
  static Label from_words(std::vector<std::uint64_t>&& words,
                          std::size_t bits) {
    assert(words.size() == (bits + 63) / 64);
    Label l;
    l.bits_ = bits;
    l.words_ = std::move(words);
    return l;
  }

  std::size_t size_bits() const noexcept { return bits_; }

  /// A reader positioned at the start of the bit string. Borrows this
  /// label's words: the Label must outlive the reader.
  BitReader reader() const noexcept PLG_LIFETIME_BOUND {
    return {words_.data(), bits_};
  }

  /// Hex rendering (low word first) for debugging and golden tests.
  std::string to_hex() const;

  bool operator==(const Label&) const = default;

  /// Raw storage (for hashing / serialization).
  const std::vector<std::uint64_t>& words() const noexcept PLG_LIFETIME_BOUND {
    return words_;
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace plg
