// BitCursor: the bounds-checked, random-access header cursor shared by
// the zero-copy decode plans (LabelView, DistanceView).
//
// It mirrors BitReader's failure contract exactly — same conditions,
// same messages — but works at an absolute bit offset inside a larger
// buffer (a store's packed bit section), which a BitReader (word-aligned
// start only) cannot. The plans' rejection parity with the BitReader
// decoders rests on this equivalence, so both plan parsers read their
// headers through it.
#pragma once

#include <cstdint>

#include "util/bits.h"
#include "util/errors.h"

namespace plg {

struct BitCursor {
  const std::uint64_t* words;
  std::uint64_t pos;
  std::uint64_t end;

  std::uint64_t read_bits(int width) {
    if (pos + static_cast<std::uint64_t>(width) > end) {
      throw DecodeError("BitReader: read past end of stream");
    }
    const std::uint64_t v = width == 0 ? 0 : extract_bits(words, pos, width);
    pos += static_cast<std::uint64_t>(width);
    return v;
  }

  std::uint64_t read_gamma() {
    // Same word-parallel unary scan, same rejection rules, as
    // BitReader::read_gamma — the two must reject identically for the
    // differential contract to hold.
    const std::uint64_t stop = find_set_bit(words, pos, end);
    if (stop >= end) throw DecodeError("BitReader: read past end of stream");
    const std::uint64_t len64 = stop - pos;
    if (len64 > 63) throw DecodeError("BitReader: malformed gamma code");
    const int len = static_cast<int>(len64);
    pos = stop + 1;
    std::uint64_t low = 0;
    if (len > 0) low = read_bits(len);
    return (std::uint64_t{1} << len) | low;
  }

  std::uint64_t read_gamma0() { return read_gamma() - 1; }
};

}  // namespace plg
