#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  // Samples ranked strictly above the interpolation position
  // p / 100 * (n - 1).
  const double pos =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1);
  const auto at_or_below = static_cast<std::size_t>(std::floor(pos)) + 1;
  return n - std::min(n, at_or_below);
}

bool percentile_resolved(std::size_t n, double p) {
  return samples_beyond(n, p) >= 10;
}

namespace {

const char* failure_name(Failure f) {
  switch (f) {
    case Failure::kMissedTol: return "missed_tol";
    case Failure::kThrew: return "threw";
    case Failure::kOverloaded: return "overloaded";
    case Failure::kTimedOut: return "timed_out";
    case Failure::kLostWorker: return "lost_worker";
    case Failure::kBitwise: return "bitwise_mismatch";
  }
  return "unknown";
}

}  // namespace

void FailTally::fail(Failure f) {
  ++failed_;
  ++by_reason_[failure_name(f)];
}

void FailTally::merge(const FailTally& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& [reason, n] : other.by_reason_) by_reason_[reason] += n;
}

double FailTally::ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

std::string FailTally::to_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [reason, n] : by_reason_) {
    if (!first) os << ",";
    first = false;
    os << json_string(reason) << ":" << n;
  }
  os << "}";
  return os.str();
}

namespace {

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}

// Open spans of the current thread, innermost last (parent links).
thread_local std::vector<std::uint64_t> t_stack;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - t0_).count();
}

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return 0;
  SpanRecord s;
  s.name = name;
  s.request = request;
  s.parent = t_stack.empty() ? 0 : t_stack.back();
  s.thread = thread_tag();
  s.start = now();
  const std::lock_guard<std::mutex> g(mu_);
  s.id = next_id_++;
  if (s.request == 0 && s.parent != 0) {
    const auto it = open_.find(s.parent);
    if (it != open_.end()) s.request = it->second.request;
  }
  t_stack.push_back(s.id);
  open_.emplace(s.id, std::move(s));
  return t_stack.back();
}

void Tracer::end(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const double t = now();
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
  const std::lock_guard<std::mutex> g(mu_);
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end = t;
  done_.push_back(std::move(it->second));
  open_.erase(it);
}

std::uint64_t Tracer::record(const std::string& name, double start,
                             double end, std::uint64_t request,
                             std::uint64_t parent) {
  if (!enabled_) return 0;
  SpanRecord s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.request = request;
  s.parent = parent;
  s.thread = thread_tag();
  const std::lock_guard<std::mutex> g(mu_);
  s.id = next_id_++;
  done_.push_back(std::move(s));
  return done_.back().id;
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> g(mu_);
  return done_;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> s = spans();
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) os << ",\n";
    os << "{\"name\":" << json_string(s[i].name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s[i].thread
       << ",\"ts\":" << json_number(s[i].start * 1e6)
       << ",\"dur\":" << json_number((s[i].end - s[i].start) * 1e6)
       << ",\"args\":{\"id\":" << s[i].id << ",\"parent\":" << s[i].parent
       << ",\"request\":" << s[i].request << "}}";
  }
  os << "]}\n";
  return os.str();
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // Child intervals per parent, clipped to the parent's interval.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    out[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return out;
}

std::map<std::string, SpanTotals> span_totals(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_s += spans[i].end - spans[i].start;
    t.self_s += self[i];
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) os << ", ";
    first = false;
    os << json_string(name) << ": {\"value\": " << json_number(metric.value)
       << ", \"unit\": " << json_string(metric.unit) << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace perfbench
