// Span recorder and per-layer ledger for bench_stack.
//
// Spans are recorded in memory around the benchmark's own calls into each
// layer's public functions, one buffer per recording thread, and are only
// read after the threads are joined — recording takes no lock. Each span
// has a name, start, end, its parent span in the same buffer, and a
// request id shared by one frame's spans. A span's self time is its
// duration minus the part of its interval its children cover, so for
// properly nested spans the self times of a root and all its descendants
// sum exactly to the root's duration (self_sum_error() checks that).
//
// With a null buffer ScopedSpan records nothing and reads no clock: the
// untraced run executes the same loops without paying for the trace.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace plg::benchstack {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

struct Span {
  const char* name = "";  ///< a string literal
  std::uint32_t parent = kNoParent;  ///< index in the same buffer
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans. Parents are opened before their children, so a
/// parent's index is always below its children's.
class SpanBuffer {
 public:
  std::uint32_t open(const char* name, std::uint64_t request,
                     std::uint32_t parent) {
    spans_.push_back(Span{name, parent, request, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t id) { spans_[id].end_ns = now_ns(); }
  void add(const Span& s) { spans_.push_back(s); }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, std::uint64_t request,
             std::uint32_t parent = kNoParent)
      : buf_(buf), id_(buf != nullptr ? buf->open(name, request, parent)
                                      : kNoParent) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const noexcept { return id_; }

 private:
  SpanBuffer* buf_;
  std::uint32_t id_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to its own).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::uint32_t>> kids(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) kids[spans[i].parent].push_back(i);
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::uint32_t k : kids[i]) {
      iv.emplace_back(std::max(spans[k].start_ns, s.start_ns),
                      std::min(spans[k].end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : iv) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  double mean_ns() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

using SpanTable = std::map<std::string, SpanTotals>;

/// Totals of one span name (all zero when the name never occurred).
inline SpanTotals totals_of(const SpanTable& t, const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? SpanTotals{} : it->second;
}

/// The spans one measured phase recorded, one buffer per thread.
struct Phase {
  std::string name;
  std::vector<SpanBuffer> threads;

  Phase(std::string phase_name, std::size_t nthreads)
      : name(std::move(phase_name)), threads(nthreads) {}

  SpanBuffer* buffer(std::size_t t) { return &threads[t]; }

  SpanTable totals() const {
    SpanTable out;
    for (const SpanBuffer& b : threads) {
      const std::vector<std::int64_t> self = self_times(b.spans());
      for (std::size_t i = 0; i < b.spans().size(); ++i) {
        const Span& s = b.spans()[i];
        SpanTotals& t = out[s.name];
        ++t.count;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self[i];
      }
    }
    return out;
  }

  /// Largest |root duration - summed self time of the root's tree|, in ns,
  /// over every root span. 0 when spans nest and siblings do not overlap.
  std::int64_t self_sum_error() const {
    std::int64_t worst = 0;
    for (const SpanBuffer& b : threads) {
      const std::vector<Span>& sp = b.spans();
      const std::vector<std::int64_t> self = self_times(sp);
      std::vector<std::uint32_t> root(sp.size());
      std::vector<std::int64_t> tree_self(sp.size(), 0);
      for (std::uint32_t i = 0; i < sp.size(); ++i) {
        root[i] = sp[i].parent == kNoParent ? i : root[sp[i].parent];
        tree_self[root[i]] += self[i];
      }
      for (std::uint32_t i = 0; i < sp.size(); ++i) {
        if (sp[i].parent != kNoParent) continue;
        const std::int64_t dur = sp[i].end_ns - sp[i].start_ns;
        worst = std::max(worst, std::abs(dur - tree_self[i]));
      }
    }
    return worst;
  }
};

/// Minimal JSON object writer for the benchmark's output files.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& integer(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, q + "\"");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{\"" : ",\"";
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string done() const { return body_.empty() ? "{}" : body_ + "}"; }

 private:
  std::string body_;
};

/// One row of the ledger: a layer's throughput and its ratio to the layer
/// it is compared with.
struct LedgerRow {
  std::string layer;  ///< "L0" .. "L5"
  std::string what;   ///< the public call timed
  double queries = 0.0;
  double seconds = 0.0;  ///< busy time (single thread) or phase wall time
  std::string base;      ///< layer the ratio is taken against ("" = none)

  double qps() const noexcept {
    return seconds > 0.0 ? queries / seconds : 0.0;
  }
};

/// Renders phases' span totals and the ledger as the trace.json document.
inline std::string trace_json(const std::vector<const Phase*>& phases,
                              const std::vector<LedgerRow>& ledger,
                              const JsonObject& extra) {
  JsonObject spans;
  for (const Phase* p : phases) {
    JsonObject by_name;
    for (const auto& [name, t] : p->totals()) {
      by_name.raw(name, JsonObject()
                            .integer("count", t.count)
                            .num("total_ns", static_cast<double>(t.total_ns))
                            .num("self_ns", static_cast<double>(t.self_ns))
                            .num("mean_ns", t.mean_ns())
                            .done());
    }
    spans.raw(p->name, JsonObject()
                           .raw("spans", by_name.done())
                           .num("self_sum_error_ns",
                                static_cast<double>(p->self_sum_error()))
                           .done());
  }
  std::string rows = "[";
  for (const LedgerRow& r : ledger) {
    double base_qps = 0.0;
    for (const LedgerRow& b : ledger) {
      if (b.layer == r.base) base_qps = b.qps();
    }
    JsonObject row;
    row.str("layer", r.layer)
        .str("what", r.what)
        .num("queries", r.queries)
        .num("seconds", r.seconds)
        .num("qps", r.qps())
        .num("ns_per_query", r.qps() > 0.0 ? 1e9 / r.qps() : 0.0);
    if (!r.base.empty()) {
      row.str("ratio_base", r.base)
          .num("ratio_to_base", base_qps > 0.0 ? r.qps() / base_qps : 0.0);
    }
    rows += (rows.size() > 1 ? "," : "") + row.done();
  }
  rows += "]";
  return JsonObject()
      .raw("phases", spans.done())
      .raw("ledger", rows)
      .raw("metrics", extra.done())
      .done();
}

}  // namespace plg::benchstack
