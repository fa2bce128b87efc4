// Span-based causal tracing (the "who did what, when, because of what"
// counterpart to the flat counters in obs/metrics.hpp).
//
// A Span is one timed step of a protocol operation on one participant; spans
// link to a parent span and share a trace id, so the hops of a shuffle, a
// witness-group formation, or an accuse → quarantine → evict pipeline
// reconstruct as one tree even though they execute on different nodes. The
// TraceContext (trace id + parent span id) rides in the message envelope
// (sim::NetMessage / wire::Envelope) to carry causality across the fabric.
//
// Determinism rules (same as the rest of obs):
//   * ids come from a seeded splitmix64 counter stream, never from entropy;
//   * timestamps are *simulated* time supplied by the producer — the tracer
//     never reads a clock;
//   * producers hold a `Tracer*` that is nullptr by default, so disabled
//     tracing costs one branch (the ScopedTimer convention), and an attached
//     tracer must not perturb any seeded protocol outcome (it draws from no
//     protocol Rng stream).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace accountnet::obs {

/// Causality carried in a message envelope: which trace the message belongs
/// to and which span caused it. trace_id == 0 means "no context" (the wire
/// default, and what untraced runs carry).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// One typed key/value annotation on a span. Values are stored as strings;
/// Tracer::attr_u64 formats integers so consumers can parse them back.
struct SpanAttr {
  std::string key;
  std::string value;
  friend bool operator==(const SpanAttr&, const SpanAttr&) = default;
};

/// One timed step of an operation on one participant.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;  ///< 0 = root of its trace
  std::string name;               ///< operation step ("shuffle", "relay.forward")
  std::string node;               ///< participant address ("n7", "net", ...)
  std::int64_t start_us = 0;      ///< simulated time
  std::int64_t end_us = -1;       ///< simulated time; < start_us while open
  std::vector<SpanAttr> attrs;

  bool open() const { return end_us < start_us; }
  const std::string* find_attr(std::string_view key) const;
  friend bool operator==(const Span&, const Span&) = default;
};

/// Collects spans for one simulation. One Tracer is shared by every node of
/// a run (ids are process-wide unique per seed), attached via
/// Node::set_tracer / NetworkSim-style setters; the default everywhere is
/// "not attached".
class Tracer {
 public:
  /// Same seed → identical id streams → byte-identical dumps across runs.
  explicit Tracer(std::uint64_t seed = 1) : seed_(seed) {}

  /// Opens a span at simulated time `t_us`. With a valid parent context the
  /// span joins that trace; otherwise it roots a new trace whose id is the
  /// span's own id. Returns the span id (never 0).
  std::uint64_t begin_span(std::string name, std::string node, std::int64_t t_us,
                           TraceContext parent = {});

  /// Closes an open span at simulated time `t_us`; unknown ids are ignored
  /// (the producer may have dropped the handle on an aborted path).
  void end_span(std::uint64_t span_id, std::int64_t t_us);

  void attr(std::uint64_t span_id, std::string key, std::string value);
  void attr_u64(std::uint64_t span_id, std::string key, std::uint64_t value);

  /// The context a child (local or across the wire) should inherit from
  /// `span_id`; the zero context if the id is unknown.
  TraceContext context(std::uint64_t span_id) const;

  const std::vector<Span>& spans() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  void clear();

 private:
  std::uint64_t next_id();

  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
  std::vector<Span> spans_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< span id → slot
};

// ---------------------------------------------------------------------------
// Span dumps: one JSON object per line (ids as fixed-width hex strings so no
// JSON reader mangles them into doubles). This is the format
// tools/accountnet_trace loads.
//   {"trace":"...16 hex...","span":"...","parent":"...","name":"...",
//    "node":"...","start_us":N,"end_us":N,"attrs":{"k":"v",...}}

std::string span_to_json_line(const Span& s);
void write_spans_jsonl(const std::vector<Span>& spans, const std::string& path);
/// Parses one dump line (util::json_parse); false (and `out` unspecified) on
/// malformed input or a missing/zero span id.
bool parse_span_json_line(const std::string& line, Span& out);
/// Loads a dump produced by write_spans_jsonl, skipping malformed lines.
std::vector<Span> load_spans_jsonl(const std::string& path);

// ---------------------------------------------------------------------------
// Perfetto export: Chrome trace-event JSON (open in https://ui.perfetto.dev
// or chrome://tracing). Each participant becomes a process track; spans
// become complete ("ph":"X") events carrying trace/span/parent ids and every
// attribute in "args".

/// Serializes spans as a complete Chrome trace-event JSON document.
std::string perfetto_json(const std::vector<Span>& spans);

/// Buffers spans and writes the JSON document on flush() (and destruction).
class PerfettoSink {
 public:
  explicit PerfettoSink(std::string path) : path_(std::move(path)) {}
  ~PerfettoSink() { flush(); }

  PerfettoSink(const PerfettoSink&) = delete;
  PerfettoSink& operator=(const PerfettoSink&) = delete;

  void add(const Span& span) { spans_.push_back(span); }
  void add_all(const std::vector<Span>& spans);

  /// Writes the complete document (overwrites; a Perfetto file is a single
  /// JSON object, not an appendable line stream). Idempotent.
  void flush();

 private:
  std::string path_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Trace forests + critical paths (the analysis behind accountnet_trace).

/// All spans of one trace, with the root resolved.
struct TraceTree {
  std::uint64_t trace_id = 0;
  const Span* root = nullptr;            ///< parent == 0 (or orphaned earliest)
  std::vector<const Span*> spans;        ///< every span, dump order
  /// Trace duration: latest end (or start, for open spans) minus root start.
  std::int64_t duration_us() const;
};

/// Groups spans into per-trace trees. Pointers alias `spans`, which must
/// outlive the result.
std::vector<TraceTree> build_traces(const std::vector<Span>& spans);

/// The chain root → … → the span that finishes last; i.e. the sequence of
/// causally linked steps that determined the operation's latency.
std::vector<const Span*> critical_path(const TraceTree& tree);

}  // namespace accountnet::obs
