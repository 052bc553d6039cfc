#pragma once
// Measurement helpers of the benchmark: order statistics, failure
// accounting, the span tracer of the traced run, and the metric map that
// becomes the result JSON. Everything here is independent of the solver
// library so the helpers can be tested on their own.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// --- Order statistics ------------------------------------------------------

/// Samples ranked strictly above the p-th percentile (p in [0, 100], the
/// interpolation position of asyncmg::percentile); a percentile counts as
/// resolved only when at least 10 samples lie beyond it.
std::size_t samples_beyond(std::size_t n, double p);
bool percentile_resolved(std::size_t n, double p);

// --- Failure accounting ----------------------------------------------------

/// Why a request counts as failed (every reason the workloads can observe).
enum class Failure {
  kMissedTol,    // true relative residual above the tolerance
  kThrew,        // the call raised an exception
  kOverloaded,   // refused with ServiceOverloaded
  kTimedOut,     // the service answered with timed_out
  kLostWorker,   // a cluster worker died during the solve
  kBitwise,      // BSP answer differs from the in-process oracle
};

class FailTally {
 public:
  void attempt() { ++attempted_; }
  void fail(Failure f);
  /// Adds another tally's attempts and failures to this one.
  void merge(const FailTally& other);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed / attempted (0 with no attempts).
  double ratio() const;
  /// {"missed_tol": n, ...} for the reasons that occurred.
  std::string to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> by_reason_;
};

// --- Tracing ---------------------------------------------------------------

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // spans of one request share this (0 = none)
  std::string name;
  double start = 0.0;         // seconds since the tracer was created
  double end = 0.0;
  std::uint32_t thread = 0;
};

/// Per-name aggregate of a span set.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// In-memory span recorder. Disabled tracers record nothing and a Span on
/// them costs one branch. Spans nest per thread: a span opened while
/// another is open on the same thread becomes its child.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  double now() const;

  /// Opens a span; returns its id (0 when disabled).
  std::uint64_t begin(const std::string& name, std::uint64_t request = 0);
  void end(std::uint64_t id);
  /// Records a finished span measured elsewhere (e.g. a service request
  /// whose start and end were stamped by the client loop); returns its id
  /// (0 when disabled).
  std::uint64_t record(const std::string& name, double start, double end,
                       std::uint64_t request = 0, std::uint64_t parent = 0);

  std::vector<SpanRecord> spans() const;
  /// Chrome trace-event JSON ("X" events, microseconds).
  std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> done_;
  std::map<std::uint64_t, SpanRecord> open_;
};

class Span {
 public:
  Span(Tracer& t, const std::string& name, std::uint64_t request = 0)
      : t_(t), id_(t.enabled() ? t.begin(name, request) : 0) {}
  ~Span() {
    if (id_ != 0) t_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::uint64_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> self_times(const std::vector<SpanRecord>& spans);
std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans);

// --- Result -----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> metric map; the result JSON's "metrics" object.
using Metrics = std::map<std::string, Metric>;

/// Full-precision JSON number (never rounded to fewer significant digits
/// than a double carries); non-finite values become null.
std::string json_number(double v);
std::string json_string(const std::string& s);
std::string metrics_json(const Metrics& m);

}  // namespace perfbench
