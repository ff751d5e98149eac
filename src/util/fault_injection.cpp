#include "util/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "util/errors.h"

namespace plg::fault {

namespace {

// splitmix64 — tiny, deterministic, and independent of plg::Rng so that
// corruption patterns never change if the library RNG evolves.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::atomic<bool> g_enabled{false};
FaultPlan g_plan;

// Service-fault bookkeeping. The *_calls counters decide which calls
// inject (every k-th), g_service_budget_used enforces the shared budget,
// and the g_injected_* counters feed service_fault_counters(). All
// relaxed: they are statistics plus a monotonic budget check, never a
// synchronization edge.
std::atomic<std::uint64_t> g_stall_calls{0};
std::atomic<std::uint64_t> g_shard_calls{0};
std::atomic<std::uint64_t> g_query_calls{0};
std::atomic<std::uint64_t> g_accept_calls{0};
std::atomic<std::uint64_t> g_net_read_calls{0};
std::atomic<std::uint64_t> g_net_write_calls{0};
std::atomic<std::uint64_t> g_mmap_calls{0};
std::atomic<std::uint64_t> g_connect_calls{0};
std::atomic<std::uint64_t> g_budget_used{0};
std::atomic<std::uint64_t> g_injected_stalls{0};
std::atomic<std::uint64_t> g_injected_shard_fails{0};
std::atomic<std::uint64_t> g_injected_query_fails{0};
std::atomic<std::uint64_t> g_injected_accept_fails{0};
std::atomic<std::uint64_t> g_injected_wire_flips{0};
std::atomic<std::uint64_t> g_injected_short_writes{0};
std::atomic<std::uint64_t> g_injected_mmap_fails{0};
std::atomic<std::uint64_t> g_injected_map_flips{0};
std::atomic<std::uint64_t> g_injected_connect_fails{0};

/// Claims one unit of the plan's shared fault budget. True = the fault
/// may fire. With no budget configured every claim succeeds.
bool claim_budget() noexcept {
  if (!g_plan.fault_budget) return true;
  // fetch_add then compare: over-claims past the cap stay declined, and
  // the counter being monotonic keeps the total deterministic.
  return g_budget_used.fetch_add(1, std::memory_order_relaxed) <
         *g_plan.fault_budget;
}

}  // namespace

FaultPlan FaultPlan::parse_spec(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() : comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultPlan: expected key=value, got '" +
                                  item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    std::uint64_t v = 0;
    try {
      v = std::stoull(value);
    } catch (const std::exception&) {
      throw std::invalid_argument("FaultPlan: bad value for '" + key + "'");
    }
    if (key == "seed") {
      plan.seed = v;
    } else if (key == "flips") {
      plan.bit_flips = static_cast<std::uint32_t>(v);
    } else if (key == "truncate") {
      plan.truncate_at = v;
    } else if (key == "short-read") {
      plan.short_read_every = v;
    } else if (key == "write-fail") {
      plan.write_fail_after = v;
    } else if (key == "alloc-cap") {
      plan.alloc_cap = v;
    } else if (key == "stall-every") {
      plan.stall_every = v;
    } else if (key == "stall-ms") {
      plan.stall_ms = static_cast<std::uint32_t>(v);
    } else if (key == "shard-fail") {
      plan.shard_fail_every = v;
    } else if (key == "query-fail") {
      plan.query_fail_every = v;
    } else if (key == "accept-fail") {
      plan.accept_fail_every = v;
    } else if (key == "wire-flip") {
      plan.wire_flip_every = v;
    } else if (key == "wire-short") {
      plan.wire_short_every = v;
    } else if (key == "connect-fail") {
      plan.connect_fail_every = v;
    } else if (key == "mmap-fail") {
      plan.mmap_fail_every = v;
    } else if (key == "map-flip") {
      plan.map_flips = static_cast<std::uint32_t>(v);
    } else if (key == "budget") {
      plan.fault_budget = v;
    } else {
      throw std::invalid_argument("FaultPlan: unknown key '" + key + "'");
    }
  }
  return plan;
}

void enable(const FaultPlan& plan) {
  g_plan = plan;
  g_stall_calls.store(0, std::memory_order_relaxed);
  g_shard_calls.store(0, std::memory_order_relaxed);
  g_query_calls.store(0, std::memory_order_relaxed);
  g_accept_calls.store(0, std::memory_order_relaxed);
  g_net_read_calls.store(0, std::memory_order_relaxed);
  g_net_write_calls.store(0, std::memory_order_relaxed);
  g_mmap_calls.store(0, std::memory_order_relaxed);
  g_connect_calls.store(0, std::memory_order_relaxed);
  g_budget_used.store(0, std::memory_order_relaxed);
  g_injected_stalls.store(0, std::memory_order_relaxed);
  g_injected_shard_fails.store(0, std::memory_order_relaxed);
  g_injected_query_fails.store(0, std::memory_order_relaxed);
  g_injected_accept_fails.store(0, std::memory_order_relaxed);
  g_injected_wire_flips.store(0, std::memory_order_relaxed);
  g_injected_short_writes.store(0, std::memory_order_relaxed);
  g_injected_mmap_fails.store(0, std::memory_order_relaxed);
  g_injected_map_flips.store(0, std::memory_order_relaxed);
  g_injected_connect_fails.store(0, std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void disable() { g_enabled.store(false, std::memory_order_release); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_acquire); }

const FaultPlan& active_plan() noexcept { return g_plan; }

void corrupt_buffer(std::vector<std::uint8_t>& bytes, const FaultPlan& plan) {
  if (plan.truncate_at && *plan.truncate_at < bytes.size()) {
    bytes.resize(static_cast<std::size_t>(*plan.truncate_at));
  }
  if (plan.bit_flips > 0 && !bytes.empty()) {
    std::uint64_t state = plan.seed;
    for (std::uint32_t i = 0; i < plan.bit_flips; ++i) {
      const std::uint64_t bit = splitmix64(state) % (bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

void on_read_buffer(std::vector<std::uint8_t>& bytes) {
  if (!enabled()) return;
  corrupt_buffer(bytes, g_plan);
}

bool should_fail_write(std::uint64_t bytes_written) noexcept {
  if (!enabled()) return false;
  return g_plan.write_fail_after && bytes_written >= *g_plan.write_fail_after;
}

void check_untrusted_alloc(std::uint64_t bytes, const char* what) {
  if (!enabled()) return;
  if (g_plan.alloc_cap && bytes > *g_plan.alloc_cap) {
    throw DecodeError(std::string(what) + ": declared size needs " +
                      std::to_string(bytes) +
                      " bytes, over the injected allocation cap of " +
                      std::to_string(*g_plan.alloc_cap));
  }
}

std::uint32_t next_chunk_stall() noexcept {
  if (!enabled() || g_plan.stall_every == 0) return 0;
  const std::uint64_t n = g_stall_calls.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % g_plan.stall_every != 0) return 0;
  if (!claim_budget()) return 0;
  g_injected_stalls.fetch_add(1, std::memory_order_relaxed);
  return g_plan.stall_ms;
}

bool on_shard_admission(std::span<std::uint8_t> region) noexcept {
  if (!enabled() || g_plan.shard_fail_every == 0 || region.empty()) {
    return false;
  }
  const std::uint64_t n = g_shard_calls.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % g_plan.shard_fail_every != 0) return false;
  if (!claim_budget()) return false;
  // One bit flip is enough: CRC-32C detects all 1-bit errors, so the
  // admission CRC is guaranteed to reject the shard. The position is a
  // pure function of (seed, injection ordinal) — deterministic damage.
  const std::uint64_t ordinal =
      g_injected_shard_fails.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = g_plan.seed ^ (ordinal * 0x9E3779B97F4A7C15ull);
  const std::uint64_t bit = splitmix64(state) % (region.size() * 8);
  region[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return true;
}

bool should_fail_query() noexcept {
  if (!enabled() || g_plan.query_fail_every == 0) return false;
  const std::uint64_t n = g_query_calls.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % g_plan.query_fail_every != 0) return false;
  if (!claim_budget()) return false;
  g_injected_query_fails.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool should_fail_accept() noexcept {
  if (!enabled() || g_plan.accept_fail_every == 0) return false;
  const std::uint64_t n =
      g_accept_calls.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % g_plan.accept_fail_every != 0) return false;
  if (!claim_budget()) return false;
  g_injected_accept_fails.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool should_fail_connect() noexcept {
  if (!enabled() || g_plan.connect_fail_every == 0) return false;
  const std::uint64_t n =
      g_connect_calls.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % g_plan.connect_fail_every != 0) return false;
  if (!claim_budget()) return false;
  g_injected_connect_fails.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void on_net_read(std::uint8_t* data, std::size_t n) noexcept {
  if (!enabled() || g_plan.wire_flip_every == 0 || n == 0) return;
  const std::uint64_t call =
      g_net_read_calls.fetch_add(1, std::memory_order_relaxed);
  if ((call + 1) % g_plan.wire_flip_every != 0) return;
  if (!claim_budget()) return;
  // One byte, position a pure function of (seed, injection ordinal) —
  // the same plan corrupts the same relative reads every run.
  const std::uint64_t ordinal =
      g_injected_wire_flips.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = g_plan.seed ^ (ordinal * 0x9E3779B97F4A7C15ull);
  data[splitmix64(state) % n] ^= 0xA5;
}

bool should_fail_mmap() noexcept {
  if (!enabled() || g_plan.mmap_fail_every == 0) return false;
  const std::uint64_t n = g_mmap_calls.fetch_add(1, std::memory_order_relaxed);
  if ((n + 1) % g_plan.mmap_fail_every != 0) return false;
  if (!claim_budget()) return false;
  g_injected_mmap_fails.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void on_map_region(std::uint8_t* data, std::size_t n) noexcept {
  if (!enabled() || g_plan.map_flips == 0 || n == 0) return;
  // Positions are a pure function of (seed, flip index, span size): the
  // same plan rots the same bits of every same-sized mapping, so a test
  // re-opening one file sees identical damage each time.
  std::uint64_t state = g_plan.seed;
  for (std::uint32_t i = 0; i < g_plan.map_flips; ++i) {
    const std::uint64_t bit = splitmix64(state) % (n * 8);
    if (!claim_budget()) return;
    data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    g_injected_map_flips.fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t clamp_net_write(std::size_t n) noexcept {
  if (!enabled() || g_plan.wire_short_every == 0 || n <= 1) return n;
  const std::uint64_t call =
      g_net_write_calls.fetch_add(1, std::memory_order_relaxed);
  if ((call + 1) % g_plan.wire_short_every != 0) return n;
  if (!claim_budget()) return n;
  g_injected_short_writes.fetch_add(1, std::memory_order_relaxed);
  return 1;
}

ServiceFaultCounters service_fault_counters() noexcept {
  ServiceFaultCounters c;
  c.stalls = g_injected_stalls.load(std::memory_order_relaxed);
  c.shard_fails = g_injected_shard_fails.load(std::memory_order_relaxed);
  c.query_fails = g_injected_query_fails.load(std::memory_order_relaxed);
  c.accept_fails = g_injected_accept_fails.load(std::memory_order_relaxed);
  c.wire_flips = g_injected_wire_flips.load(std::memory_order_relaxed);
  c.short_writes = g_injected_short_writes.load(std::memory_order_relaxed);
  c.mmap_fails = g_injected_mmap_fails.load(std::memory_order_relaxed);
  c.map_flips = g_injected_map_flips.load(std::memory_order_relaxed);
  c.connect_fails = g_injected_connect_fails.load(std::memory_order_relaxed);
  return c;
}

// ---------------------------------------------------------------------------
// FaultInputStream

FaultInputStream::FaultInputStream(std::istream& source, const FaultPlan& plan)
    : std::istream(nullptr), buf_(source.rdbuf(), plan) {
  rdbuf(&buf_);
}

std::streambuf::int_type FaultInputStream::Buf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ++reads_;
  std::streamsize want = static_cast<std::streamsize>(sizeof(chunk_));
  if (plan_.short_read_every > 0 && reads_ % plan_.short_read_every == 0) {
    want = 1;  // injected short read
  }
  if (plan_.truncate_at) {
    if (delivered_ >= *plan_.truncate_at) return traits_type::eof();
    want = std::min<std::streamsize>(
        want, static_cast<std::streamsize>(*plan_.truncate_at - delivered_));
  }
  const std::streamsize got = source_->sgetn(chunk_, want);
  if (got <= 0) return traits_type::eof();
  delivered_ += static_cast<std::uint64_t>(got);
  setg(chunk_, chunk_, chunk_ + got);
  return traits_type::to_int_type(*gptr());
}

// ---------------------------------------------------------------------------
// FaultOutputStream

FaultOutputStream::FaultOutputStream(std::ostream& sink, const FaultPlan& plan)
    : std::ostream(nullptr), buf_(sink.rdbuf(), plan) {
  rdbuf(&buf_);
}

bool FaultOutputStream::Buf::write_allowed(std::streamsize n,
                                           std::streamsize& allowed) noexcept {
  allowed = n;
  if (!plan_.write_fail_after) return true;
  if (written_ >= *plan_.write_fail_after) {
    allowed = 0;
    return false;
  }
  allowed = std::min<std::streamsize>(
      n, static_cast<std::streamsize>(*plan_.write_fail_after - written_));
  return true;
}

std::streambuf::int_type FaultOutputStream::Buf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
  std::streamsize allowed = 0;
  write_allowed(1, allowed);
  if (allowed < 1) return traits_type::eof();
  const char c = traits_type::to_char_type(ch);
  if (sink_->sputc(c) == traits_type::eof()) return traits_type::eof();
  ++written_;
  return ch;
}

std::streamsize FaultOutputStream::Buf::xsputn(const char* s,
                                               std::streamsize n) {
  std::streamsize allowed = 0;
  write_allowed(n, allowed);
  if (allowed <= 0) return 0;
  const std::streamsize put = sink_->sputn(s, allowed);
  if (put > 0) written_ += static_cast<std::uint64_t>(put);
  // Returning fewer bytes than requested makes the ostream set badbit.
  return put == n ? n : put;
}

}  // namespace plg::fault
