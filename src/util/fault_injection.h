// Deterministic fault injection for the persistence layer.
//
// The library's failure contract ("throw DecodeError/EncodeError or return
// a possibly-wrong answer — never crash") is only as good as the faults it
// has been proven against. This facility makes faults first-class and
// reproducible:
//
//   * FaultPlan — a seedable description of what goes wrong: bit flips,
//     truncation, short reads, write failures, allocation caps. The same
//     plan always produces the same corruption (splitmix64-driven).
//   * Pure helpers (corrupt_buffer) — apply a plan to an in-memory blob;
//     this is what the table-driven fuzz suite uses.
//   * A process-global failpoint — enable(plan)/disable() let plgtool and
//     integration tests inject faults into the real I/O paths
//     (LabelStore::open_file, load_graph, save paths) without changing
//     their signatures. Compiled in always; when disabled the hooks cost
//     one relaxed atomic load and no branches beyond it.
//   * Stream wrappers (FaultInputStream / FaultOutputStream) — std::istream
//     / std::ostream adapters that truncate, shorten reads, or fail writes
//     according to a plan, for exercising stream-state error handling.
//   * check_untrusted_alloc — a guard the deserializers call before any
//     allocation whose size is controlled by untrusted input; under an
//     active alloc cap it throws DecodeError instead of letting a corrupt
//     header drive a multi-GB allocation.
//   * Service-level faults (the service chaos harness) — the same plan
//     can stall workers (slow-worker fault), fail snapshot shard
//     admission (mid-reload corruption), and fail individual label
//     fetches at query time. Each hook draws from a process-global
//     atomic counter, so the *number* of injected faults is
//     deterministic for a given plan and call count even though thread
//     scheduling decides which worker absorbs each one;
//     service_fault_counters() exposes the totals for test assertions.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace plg::fault {

/// A deterministic description of injected faults. Default-constructed
/// plans inject nothing; each knob is independent.
struct FaultPlan {
  /// Seed for all randomized choices (bit positions). Same seed, same
  /// buffer size => same corruption.
  std::uint64_t seed = 1;

  /// Number of uniformly random bit flips applied to a buffer.
  std::uint32_t bit_flips = 0;

  /// Cut a buffer / input stream to this many bytes.
  std::optional<std::uint64_t> truncate_at;

  /// When k > 0, input streams deliver at most one byte per underflow on
  /// every k-th read call (exercises partial-read handling).
  std::uint64_t short_read_every = 0;

  /// Output streams fail (badbit) after this many bytes are written —
  /// a deterministic "disk full".
  std::optional<std::uint64_t> write_fail_after;

  /// Cap, in bytes, on any single untrusted-input-driven allocation.
  /// Deserializers consult this through check_untrusted_alloc().
  std::optional<std::uint64_t> alloc_cap;

  // --- service-level faults (chunk execution, shard admission, query) ---

  /// When k > 0, every k-th chunk execution stalls for stall_ms
  /// milliseconds before answering (slow-worker fault; exercises
  /// deadlines and queue back-pressure).
  std::uint64_t stall_every = 0;

  /// Duration of an injected worker stall.
  std::uint32_t stall_ms = 1;

  /// When k > 0, every k-th snapshot shard admission has one bit of its
  /// freshly serialized region flipped, so the admission CRC fails
  /// (mid-reload corruption; exercises shard quarantine).
  std::uint64_t shard_fail_every = 0;

  /// When k > 0, every k-th label fetch in the query engine is treated
  /// as a decode failure and answered kCorrupt (query-time corruption;
  /// exercises the runtime quarantine threshold).
  std::uint64_t query_fail_every = 0;

  // --- mapping-level faults (the mmap storage plane's chaos hooks) ---

  /// When k > 0, every k-th mmap attempt (store::MappedFile::open) fails
  /// with an injected DecodeError before the file is mapped (exercises
  /// the mmap-unavailable fallback and error surfacing).
  std::uint64_t mmap_fail_every = 0;

  /// Number of deterministic bit flips applied to a freshly mapped
  /// region's shard payload (after the structurally validated header +
  /// directory prefix). Models memory-side rot of a mapping whose file
  /// is clean: the mapping is MAP_PRIVATE, so the flips never reach
  /// disk and a quarantine + re-read self-heal genuinely recovers.
  std::uint32_t map_flips = 0;

  // --- socket-level faults (the TCP serving plane's chaos hooks) ---

  /// When k > 0, every k-th accept() is artificially failed: the freshly
  /// accepted connection is closed before registration (exercises the
  /// accept-error path and client retry behavior).
  std::uint64_t accept_fail_every = 0;

  /// When k > 0, every k-th successful socket read has one
  /// seed-determined byte XOR-flipped in place (on-the-wire corruption;
  /// exercises the protocol-error reject path — a flipped frame must be
  /// answered with an error frame or a close, never a crash).
  std::uint64_t wire_flip_every = 0;

  /// When k > 0, every k-th socket write is clamped to one byte (a
  /// deterministic short write / stalled peer; exercises partial-write
  /// resume and the write-stall timeout machinery).
  std::uint64_t wire_short_every = 0;

  /// When k > 0, every k-th outbound NetClient connect() is failed
  /// before the socket is created (unreachable node; exercises the
  /// router's replica-failover and health-demotion paths).
  std::uint64_t connect_fail_every = 0;

  /// Total cap on injected *service* faults (stalls + shard fails +
  /// query fails + accept fails + wire flips + short writes). Unset =
  /// unlimited. A finite budget lets a chaos test storm
  /// deterministically and then watch the system heal without
  /// reconfiguring the plan mid-run.
  std::optional<std::uint64_t> fault_budget;

  /// Parses a "key=value,key=value" spec, e.g.
  ///   "seed=7,flips=3,truncate=128,short-read=4,write-fail=64,alloc-cap=1048576"
  ///   ",stall-every=5,stall-ms=2,shard-fail=3,query-fail=7,budget=200"
  ///   ",accept-fail=5,wire-flip=9,wire-short=4,mmap-fail=2,map-flip=6"
  ///   ",connect-fail=3"
  /// Unknown keys or malformed values throw std::invalid_argument.
  static FaultPlan parse_spec(const std::string& spec);
};

/// Totals of service-level faults injected since the last enable().
struct ServiceFaultCounters {
  std::uint64_t stalls = 0;
  std::uint64_t shard_fails = 0;
  std::uint64_t query_fails = 0;
  std::uint64_t accept_fails = 0;
  std::uint64_t wire_flips = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t mmap_fails = 0;
  std::uint64_t map_flips = 0;
  std::uint64_t connect_fails = 0;
  std::uint64_t total() const noexcept {
    return stalls + shard_fails + query_fails + accept_fails + wire_flips +
           short_writes + mmap_fails + map_flips + connect_fails;
  }
};

// ---------------------------------------------------------------------------
// Process-global failpoint.
//
// Concurrency contract: the plan's fields are written only while the
// failpoint is disabled (enable() writes them *before* its release-store
// of the enabled flag), and hooks read them only after an acquire-load
// observes the flag set — so a single enable() is race-free against any
// number of concurrently running hooks, and disable() (which touches only
// the flag) may be called at any time. Re-enabling with a *new* plan
// while hook-calling threads are still running is the one unsupported
// pattern; chaos tests instead give the first plan a fault_budget and let
// it exhaust.

/// Installs `plan` as the active global fault plan and zeroes the
/// service-fault counters.
void enable(const FaultPlan& plan);

/// Removes the active plan; all hooks become no-ops again.
void disable();

/// True iff a plan is active. The fast path everywhere else.
bool enabled() noexcept;

/// The active plan. Only meaningful while enabled().
const FaultPlan& active_plan() noexcept;

/// RAII: enables a plan for the current scope (tests).
class ScopedFault {
 public:
  explicit ScopedFault(const FaultPlan& plan) { enable(plan); }
  ~ScopedFault() { disable(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

// ---------------------------------------------------------------------------
// Pure, deterministic corruption helpers (no global state).

/// Applies the plan's buffer faults to `bytes`: truncation first, then
/// `bit_flips` random flips driven by `plan.seed`.
void corrupt_buffer(std::vector<std::uint8_t>& bytes, const FaultPlan& plan);

// ---------------------------------------------------------------------------
// Hooks for the persistence layer. All are no-ops unless enabled().

/// Applies the active plan's buffer faults to a freshly read blob.
void on_read_buffer(std::vector<std::uint8_t>& bytes);

/// True when the active plan says a write at offset `bytes_written` fails.
bool should_fail_write(std::uint64_t bytes_written) noexcept;

/// Guard for allocations sized by untrusted input. Throws DecodeError
/// (message names `what` and the requested size) when an active alloc cap
/// is exceeded; otherwise returns. Costs one atomic load when disabled.
/// A call to this sanitizes its size for plglint's untrusted-length rule.
// plglint: bounds-check
void check_untrusted_alloc(std::uint64_t bytes, const char* what);

// ---------------------------------------------------------------------------
// Service-level fault hooks. All no-ops (one relaxed atomic load) unless
// enabled(); all draw on the shared fault budget.

/// Called by the engine at the start of each chunk. Returns the stall
/// duration in milliseconds (0 = run at full speed); the caller sleeps.
std::uint32_t next_chunk_stall() noexcept;

/// Called by snapshot shard admission on the fresh shard region, between
/// serialize and the admission CRC. When the plan says this admission
/// fails, flips one seed-determined bit of `region` (so the CRC check
/// rejects it) and returns true.
bool on_shard_admission(std::span<std::uint8_t> region) noexcept;

/// Called by the engine before fetching a label. True means the fetch
/// must be treated as a decode failure (answered kCorrupt in-band).
bool should_fail_query() noexcept;

/// Called by the TCP server after accept() succeeds. True means the
/// server must close the connection immediately (injected accept
/// failure).
bool should_fail_accept() noexcept;

/// Called by NetClient::connect before creating the socket. True means
/// the connect must fail without touching the network (injected
/// unreachable node).
bool should_fail_connect() noexcept;

/// Called by the TCP server after each successful socket read. When the
/// plan says this read is corrupted, XOR-flips one seed-determined byte
/// of `data[0..n)` in place (deterministic on-the-wire damage).
void on_net_read(std::uint8_t* data, std::size_t n) noexcept;

/// Called by store::MappedFile::open before mapping a file. True means
/// the open must fail with a DecodeError (injected mmap failure).
bool should_fail_mmap() noexcept;

/// Called by store::MappedStore::open on the writable (MAP_PRIVATE)
/// shard-payload span of a fresh mapping, after the header + directory
/// have been structurally validated. Applies the plan's map_flips
/// deterministic bit flips to `data[0..n)` (copy-on-write: the backing
/// file is untouched, so the disk re-read heal path recovers). Each flip
/// draws one unit of the shared fault budget.
void on_map_region(std::uint8_t* data, std::size_t n) noexcept;

/// Called by the TCP server before each socket write of `n` bytes.
/// Returns the byte count actually allowed (n normally; 1 on an
/// injected short write) — the server writes at most that many, leaving
/// the rest buffered exactly as a stalled peer would.
std::size_t clamp_net_write(std::size_t n) noexcept;

/// Totals injected since the last enable(). Safe to call any time.
ServiceFaultCounters service_fault_counters() noexcept;

// ---------------------------------------------------------------------------
// Stream wrappers (explicit-plan; usable without the global failpoint).

/// Input stream that reads from `source` but truncates at
/// plan.truncate_at and shortens every plan.short_read_every-th read.
class FaultInputStream : public std::istream {
 public:
  FaultInputStream(std::istream& source, const FaultPlan& plan);

 private:
  class Buf : public std::streambuf {
   public:
    Buf(std::streambuf* source, const FaultPlan& plan)
        : source_(source), plan_(plan) {}

   protected:
    int_type underflow() override;

   private:
    std::streambuf* source_;
    FaultPlan plan_;
    std::uint64_t delivered_ = 0;
    std::uint64_t reads_ = 0;
    char chunk_[256];
  };
  Buf buf_;
};

/// Output stream that forwards to `sink` until plan.write_fail_after bytes
/// have been written, then fails every subsequent write (sticky badbit in
/// the wrapping ostream).
class FaultOutputStream : public std::ostream {
 public:
  FaultOutputStream(std::ostream& sink, const FaultPlan& plan);

 private:
  class Buf : public std::streambuf {
   public:
    Buf(std::streambuf* sink, const FaultPlan& plan)
        : sink_(sink), plan_(plan) {}

   protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;

   private:
    bool write_allowed(std::streamsize n, std::streamsize& allowed) noexcept;
    std::streambuf* sink_;
    FaultPlan plan_;
    std::uint64_t written_ = 0;
  };
  Buf buf_;
};

}  // namespace plg::fault
