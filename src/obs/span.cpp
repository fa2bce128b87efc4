#include "accountnet/obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_set>

#include "accountnet/obs/sink.hpp"  // json_escape
#include "accountnet/util/ensure.hpp"
#include "accountnet/util/json.hpp"

namespace accountnet::obs {

namespace {

/// Stateless mix (splitmix64): a bijection, so distinct counter values give
/// distinct ids for a fixed seed — no entropy, no protocol Rng stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

const std::string* Span::find_attr(std::string_view key) const {
  for (const SpanAttr& a : attrs) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

std::uint64_t Tracer::next_id() {
  std::uint64_t id = 0;
  while (id == 0) id = mix64(seed_ + ++counter_);
  return id;
}

std::uint64_t Tracer::begin_span(std::string name, std::string node,
                                 std::int64_t t_us, TraceContext parent) {
  Span s;
  s.span_id = next_id();
  s.trace_id = parent.valid() ? parent.trace_id : s.span_id;
  s.parent_span = parent.valid() ? parent.parent_span : 0;
  s.name = std::move(name);
  s.node = std::move(node);
  s.start_us = t_us;
  s.end_us = t_us - 1;  // open
  index_[s.span_id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

void Tracer::end_span(std::uint64_t span_id, std::int64_t t_us) {
  const auto it = index_.find(span_id);
  if (it == index_.end()) return;
  Span& s = spans_[it->second];
  s.end_us = std::max(t_us, s.start_us);
}

void Tracer::attr(std::uint64_t span_id, std::string key, std::string value) {
  const auto it = index_.find(span_id);
  if (it == index_.end()) return;
  spans_[it->second].attrs.push_back({std::move(key), std::move(value)});
}

void Tracer::attr_u64(std::uint64_t span_id, std::string key, std::uint64_t value) {
  attr(span_id, std::move(key), std::to_string(value));
}

TraceContext Tracer::context(std::uint64_t span_id) const {
  const auto it = index_.find(span_id);
  if (it == index_.end()) return {};
  const Span& s = spans_[it->second];
  return {s.trace_id, s.span_id};
}

void Tracer::clear() {
  spans_.clear();
  index_.clear();
}

// ---------------------------------------------------------------------------
// JSONL dump.

std::string span_to_json_line(const Span& s) {
  std::string out = "{\"trace\":\"" + hex16(s.trace_id) + "\",\"span\":\"" +
                    hex16(s.span_id) + "\",\"parent\":\"" + hex16(s.parent_span) +
                    "\",\"name\":\"" + json_escape(s.name) + "\",\"node\":\"" +
                    json_escape(s.node) +
                    "\",\"start_us\":" + std::to_string(s.start_us) +
                    ",\"end_us\":" + std::to_string(s.end_us) + ",\"attrs\":{";
  bool first = true;
  for (const SpanAttr& a : s.attrs) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(a.key) + "\":\"" + json_escape(a.value) + "\"";
  }
  out += "}}";
  return out;
}

void write_spans_jsonl(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  AN_ENSURE_MSG(f != nullptr, "cannot open span dump file: " + path);
  for (const Span& s : spans) {
    const std::string line = span_to_json_line(s);
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
  }
  std::fclose(f);
}

namespace {

// Field readers for parse_span_json_line: an absent field keeps its default,
// a present one must have the type span_to_json_line writes.

bool read_hex_id(const util::JsonValue* v, std::uint64_t& out) {
  if (v == nullptr) return true;
  if (!v->is_string() || v->as_string().empty()) return false;
  const std::string& s = v->as_string();
  char* after = nullptr;
  out = std::strtoull(s.c_str(), &after, 16);
  return after == s.c_str() + s.size();
}

bool read_string(const util::JsonValue* v, std::string& out) {
  if (v == nullptr) return true;
  if (!v->is_string()) return false;
  out = v->as_string();
  return true;
}

/// µs stamps travel as JSON numbers (doubles): exact below 2^53, which
/// simulated time never reaches.
bool read_stamp(const util::JsonValue* v, std::int64_t& out) {
  if (v == nullptr) return true;
  if (!v->is_number()) return false;
  const double d = v->as_number();
  if (d != std::floor(d) || std::fabs(d) > 9007199254740992.0) return false;
  out = static_cast<std::int64_t>(d);
  return true;
}

}  // namespace

bool parse_span_json_line(const std::string& line, Span& out) {
  out = Span{};
  const auto doc = util::json_parse(line);
  if (!doc || !doc->is_object()) return false;
  if (!read_hex_id(doc->get("trace"), out.trace_id) ||
      !read_hex_id(doc->get("span"), out.span_id) ||
      !read_hex_id(doc->get("parent"), out.parent_span) ||
      !read_string(doc->get("name"), out.name) ||
      !read_string(doc->get("node"), out.node) ||
      !read_stamp(doc->get("start_us"), out.start_us) ||
      !read_stamp(doc->get("end_us"), out.end_us)) {
    return false;
  }
  if (const util::JsonValue* attrs = doc->get("attrs")) {
    if (!attrs->is_object()) return false;
    for (const std::string& key : attrs->keys()) {  // written order
      const util::JsonValue* value = attrs->get(key);
      if (!value->is_string()) return false;
      out.attrs.push_back({key, value->as_string()});
    }
  }
  return out.span_id != 0;
}

std::vector<Span> load_spans_jsonl(const std::string& path) {
  std::vector<Span> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Span s;
    if (parse_span_json_line(line, s)) out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Perfetto export.

std::string perfetto_json(const std::vector<Span>& spans) {
  // Stable pid per participant, in first-seen order.
  std::unordered_map<std::string, int> pids;
  std::vector<const std::string*> names;
  for (const Span& s : spans) {
    if (pids.emplace(s.node, static_cast<int>(pids.size()) + 1).second) {
      names.push_back(&s.node);
    }
  }

  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& s : spans) ordered.push_back(&s);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Span* a, const Span* b) {
                     if (a->start_us != b->start_us) return a->start_us < b->start_us;
                     return a->span_id < b->span_id;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" +
           std::to_string(i + 1) + ",\"tid\":0,\"args\":{\"name\":\"" +
           json_escape(*names[i]) + "\"}}";
  }
  for (const Span* s : ordered) {
    const int pid = pids[s->node];
    const std::int64_t dur = s->open() ? 0 : s->end_us - s->start_us;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + json_escape(s->name) +
           "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" + std::to_string(s->start_us) +
           ",\"dur\":" + std::to_string(dur) + ",\"pid\":" + std::to_string(pid) +
           ",\"tid\":" + std::to_string(pid) + ",\"args\":{\"trace\":\"" +
           hex16(s->trace_id) + "\",\"span\":\"" + hex16(s->span_id) +
           "\",\"parent\":\"" + hex16(s->parent_span) + "\"";
    for (const SpanAttr& a : s->attrs) {
      out += ",\"" + json_escape(a.key) + "\":\"" + json_escape(a.value) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

void PerfettoSink::add_all(const std::vector<Span>& spans) {
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void PerfettoSink::flush() {
  std::FILE* f = std::fopen(path_.c_str(), "w");
  AN_ENSURE_MSG(f != nullptr, "cannot open perfetto trace file: " + path_);
  const std::string doc = perfetto_json(spans_);
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Trace forests + critical paths.

std::int64_t TraceTree::duration_us() const {
  if (root == nullptr) return 0;
  std::int64_t latest = root->start_us;
  for (const Span* s : spans) {
    latest = std::max(latest, s->open() ? s->start_us : s->end_us);
  }
  return latest - root->start_us;
}

std::vector<TraceTree> build_traces(const std::vector<Span>& spans) {
  std::vector<TraceTree> out;
  std::unordered_map<std::uint64_t, std::size_t> slot;
  for (const Span& s : spans) {
    const auto [it, inserted] = slot.emplace(s.trace_id, out.size());
    if (inserted) {
      out.push_back(TraceTree{s.trace_id, nullptr, {}});
    }
    out[it->second].spans.push_back(&s);
  }
  for (TraceTree& tree : out) {
    std::unordered_set<std::uint64_t> present;
    for (const Span* s : tree.spans) present.insert(s->span_id);
    // Prefer a true root (parent == 0); otherwise the earliest orphan — a
    // trimmed dump can lose the root but the tree should still analyse.
    for (const Span* s : tree.spans) {
      const bool rootish = s->parent_span == 0 || !present.contains(s->parent_span);
      if (!rootish) continue;
      if (tree.root == nullptr || s->start_us < tree.root->start_us ||
          (s->start_us == tree.root->start_us && s->parent_span == 0 &&
           tree.root->parent_span != 0)) {
        tree.root = s;
      }
    }
  }
  return out;
}

std::vector<const Span*> critical_path(const TraceTree& tree) {
  std::vector<const Span*> path;
  if (tree.spans.empty()) return path;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span* s : tree.spans) by_id.emplace(s->span_id, s);

  const Span* last = tree.spans.front();
  auto finish = [](const Span* s) { return s->open() ? s->start_us : s->end_us; };
  for (const Span* s : tree.spans) {
    if (finish(s) > finish(last)) last = s;
  }
  // Walk parent links back to the root; cycle-guarded for hostile dumps.
  std::unordered_set<std::uint64_t> visited;
  for (const Span* s = last; s != nullptr && visited.insert(s->span_id).second;) {
    path.push_back(s);
    const auto it = by_id.find(s->parent_span);
    s = it == by_id.end() ? nullptr : it->second;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace accountnet::obs
