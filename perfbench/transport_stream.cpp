// transport_stream: the daemon transport over loopback TCP.
//
// Two net::ConnectionManagers on one net::EventLoop; A streams envelopes to
// B, closed loop with 64 frames in flight (each delivery at B releases the
// next send at A). First phase: 256 B payloads; second phase: 64 KiB. Every
// frame carries its sequence number and a seeded body that B checks byte
// for byte, so reordering, loss and corruption all fail the run.
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "accountnet/net/connection.hpp"
#include "accountnet/net/event_loop.hpp"
#include "accountnet/obs/metrics.hpp"
#include "accountnet/util/rng.hpp"
#include "accountnet/wire/envelope.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace accountnet;

constexpr std::size_t kInFlight = 64;
constexpr std::size_t kSmallBytes = 256;
constexpr std::size_t kLargeBytes = 64 * 1024;
constexpr double kSliceS = 0.1;
constexpr std::size_t kWarmupFrames = 20000;
constexpr std::size_t kCodecSampleEvery = 64;  ///< traced codec timing: 1 in N frames
constexpr int kSetups = 5;

/// One phase's measurements.
struct Phase {
  SliceRates untraced, traced;  ///< frames/s per slice
  std::vector<double> send_us, latency_us, encode_ns, decode_ns;
};

class Stream {
 public:
  Stream(std::uint64_t seed, Ledger& ledger)
      : a_(loop_, {}, metrics_a_, seed),
        b_(loop_, {}, metrics_b_, seed + 1),
        ledger_(ledger),
        rng_(seed) {
    if (!loop_.valid() || !a_.listen() || !b_.listen()) {
      throw std::runtime_error("loopback listen failed");
    }
    b_.set_deliver([this](wire::Envelope env) { on_deliver(env); });
    // Warm both frame sizes, so connection set-up and 64 KiB buffers are
    // paid here and not in the measured phases.
    Phase warm;
    run_phase(kSmallBytes, 1e9, kWarmupFrames, false, warm);
    run_phase(kLargeBytes, 1e9, kWarmupFrames / 32, false, warm);
  }

  /// Streams `bytes`-sized frames until `seconds` have passed or `max_frames`
  /// were sent, then drains the window. With `trace`, odd slices are traced.
  void run_phase(std::size_t bytes, double seconds, std::size_t max_frames, bool trace,
                 Phase& out) {
    body_.resize(bytes);
    for (auto& b : body_) b = static_cast<std::uint8_t>(rng_.next_u64());
    tx_ = wire::Envelope{a_.self_addr(), b_.self_addr(), 7, 0, 0, body_};
    phase_ = &out;
    sending_ = true;
    sent_ = received_ = 0;
    send_limit_ = max_frames;

    const auto start = Clock::now();
    double probe = probe_s();
    for (std::size_t i = 0; i < kInFlight; ++i) send_next();
    std::size_t slice = 0;
    auto slice_start = Clock::now();
    std::uint64_t slice_received = 0;
    traced_ = false;
    std::optional<Clock::time_point> drain_start;
    while (sending_ || received_ < sent_) {
      {
        Ledger::Scope s(ledger_, "net.poll");
        loop_.poll(10000);
      }
      const double dt = seconds_since(slice_start);
      if (sending_ && dt >= kSliceS) {
        const double probe_after = probe_s();
        (traced_ ? out.traced : out.untraced)
            .add(static_cast<double>(received_ - slice_received), dt, probe, probe_after);
        probe = probe_after;
        if (traced_) traced_wall_s += dt;
        ++slice;
        set_traced(trace && slice % 2 == 1);
        slice_start = Clock::now();
        slice_received = received_;
        if (seconds_since(start) >= seconds) sending_ = false;
      }
      if (sending_ && sent_ >= send_limit_) sending_ = false;
      if (!sending_ && !drain_start) drain_start = Clock::now();
      if (drain_start && seconds_since(*drain_start) > 5.0) break;  // frames lost
    }
    set_traced(false);
    phase_ = nullptr;
    lost += sent_ - received_;
    attempted += sent_;
  }

  std::uint64_t counter(const char* name) const { return a_.counter(name) + b_.counter(name); }

  std::uint64_t attempted = 0, lost = 0, out_of_order = 0, corrupted = 0;
  double traced_wall_s = 0.0;

 private:
  void set_traced(bool on) {
    traced_ = on;
    ledger_.set_enabled(on);
  }

  void send_next() {
    if (!sending_) return;
    const std::uint64_t seq = sent_++;
    std::memcpy(tx_.payload.data(), &seq, sizeof(seq));
    if (traced_) send_ns_[seq % kInFlight] = Clock::now();
    double send_s = 0.0;
    {
      Ledger::Scope s(ledger_, "net.send", &send_s);
      a_.send(tx_);
    }
    if (traced_) phase_->send_us.push_back(send_s * 1e6);
    if (sent_ >= send_limit_) sending_ = false;
  }

  void on_deliver(const wire::Envelope& env) {
    const auto now = Clock::now();
    {
      Ledger::Scope s(ledger_, "perfbench.check");
      std::uint64_t seq = ~0ull;
      if (env.payload.size() == body_.size() && env.payload.size() >= sizeof(seq)) {
        std::memcpy(&seq, env.payload.data(), sizeof(seq));
      }
      if (seq != received_) {
        ++out_of_order;
      } else if (std::memcmp(env.payload.data() + sizeof(seq), body_.data() + sizeof(seq),
                             body_.size() - sizeof(seq)) != 0) {
        ++corrupted;
      }
      if (traced_ && seq < sent_ && sent_ - seq <= kInFlight &&
          send_ns_[seq % kInFlight] != Clock::time_point{}) {
        phase_->latency_us.push_back(
            std::chrono::duration<double, std::micro>(now - send_ns_[seq % kInFlight]).count());
      }
      if (seq < sent_) send_ns_[seq % kInFlight] = Clock::time_point{};
    }
    ++received_;
    if (traced_ && received_ % kCodecSampleEvery == 0) time_codec(env);
    send_next();
  }

  /// The benchmark's own timed calls into the public envelope codec, on the
  /// envelope just delivered (what ConnectionManager encodes and decodes).
  void time_codec(const wire::Envelope& env) {
    double enc_s = 0.0, dec_s = 0.0;
    Bytes encoded;
    {
      Ledger::Scope s(ledger_, "wire.codec", &enc_s);
      encoded = wire::encode_envelope(env);
    }
    {
      Ledger::Scope s(ledger_, "wire.codec", &dec_s);
      if (!(wire::decode_envelope(encoded) == env)) ++corrupted;
    }
    phase_->encode_ns.push_back(enc_s * 1e9);
    phase_->decode_ns.push_back(dec_s * 1e9);
  }

  net::EventLoop loop_;
  obs::MetricsRegistry metrics_a_, metrics_b_;
  net::ConnectionManager a_, b_;
  Ledger& ledger_;
  Rng rng_;
  Bytes body_;
  wire::Envelope tx_;
  Phase* phase_ = nullptr;
  bool sending_ = false, traced_ = false;
  std::uint64_t sent_ = 0, received_ = 0, send_limit_ = 0;
  Clock::time_point send_ns_[kInFlight] = {};
};

}  // namespace

void run_transport_stream(const Options& opt, Report& out) {
  Ledger ledger;
  std::unique_ptr<Stream> stream;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    stream.reset();
    const auto t0 = Clock::now();
    stream = std::make_unique<Stream>(opt.seed, ledger);
    setup_s.push_back(seconds_since(t0));
  }
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  const std::uint64_t warm_attempted = stream->attempted;

  Phase small, large;
  stream->run_phase(kSmallBytes, opt.seconds / 2, ~std::size_t{0}, opt.trace, small);
  stream->run_phase(kLargeBytes, opt.seconds / 2, ~std::size_t{0}, opt.trace, large);

  const std::uint64_t dropped = stream->counter("backpressure.dropped_frames");
  out.attempted = stream->attempted - warm_attempted;
  out.failed = stream->lost + stream->out_of_order + stream->corrupted;
  out.gate(stream->lost == 0, "frames lost");
  out.gate(stream->out_of_order == 0, "frames out of order");
  out.gate(stream->corrupted == 0, "frames corrupted");

  const double small_fps = median(small.untraced.raw);
  const double large_fps = median(large.untraced.raw);
  out.set("setup_s", median(setup_s), "s");
  out.set("ops_per_ref_s", median(small.untraced.scaled), "1/ref_s");
  out.set("ops_per_s", small_fps, "1/s");
  out.set("frames_per_s", small_fps, "1/s");
  out.set("payload_mb_per_s", large_fps * static_cast<double>(kLargeBytes) / 1e6, "MB/s");
  out.set("fail_ratio",
          ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)), "ratio");
  out.set("net.backpressure_dropped", static_cast<double>(dropped), "count");
  out.set("net.reconnects", static_cast<double>(stream->counter("reconnects")), "count");
  if (opt.trace) {
    // Small-frame figures are the per-layer view of frames_per_s; the 64 KiB
    // phase's are kept in the info block.
    out.set("net.send_us_p50", median(small.send_us), "us");
    out.set("net.frame_latency_us_p50", percentile(small.latency_us, 50), "us");
    out.set("net.frame_latency_us_p99", percentile(small.latency_us, 99), "us");
    out.set("wire.envelope_encode_ns", median(small.encode_ns), "ns");
    out.set("wire.envelope_decode_ns", median(small.decode_ns), "ns");
    const auto& self = ledger.self_s();
    const auto layer_s = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    out.set("net.poll_busy_ms", layer_s("net.poll") * 1e3, "ms");
    const double attributed =
        layer_s("net.poll") + layer_s("net.send") + layer_s("wire.codec");
    out.set("ledger.unattributed_share", 1.0 - ratio(attributed, stream->traced_wall_s),
            "ratio");
    out.set("trace.overhead_share",
            1.0 - ratio(median(small.traced.scaled), median(small.untraced.scaled)), "ratio");
    out.info["large.send_us_p50"] = std::to_string(median(large.send_us));
    out.info["large.frame_latency_us_p50"] = std::to_string(percentile(large.latency_us, 50));
    out.info["large.envelope_encode_ns"] = std::to_string(median(large.encode_ns));
    out.info["large.envelope_decode_ns"] = std::to_string(median(large.decode_ns));
    out.info["ledger.perfbench_check_share"] =
        std::to_string(ratio(layer_s("perfbench.check"), stream->traced_wall_s));
  }
  out.info["small_slices"] =
      std::to_string(small.untraced.raw.size() + small.traced.raw.size());
  out.info["large_slices"] =
      std::to_string(large.untraced.raw.size() + large.traced.raw.size());
}

}  // namespace perfbench
